//! Recursive-descent parser for the supported SQL subset.

use crate::ast::{AggregateFunc, BinaryOp, Expr, OrderDirection, SelectCols, Statement};
use crate::token::{tokenize, Token};
use bargain_common::{Error, Result, Value};
use bargain_storage::ColumnType;

/// The longest SQL text [`parse`] accepts for one statement, and
/// [`crate::TransactionTemplate::new`] for all of a template's statements
/// together, in bytes. The longest statement of the shipped workloads is
/// 208 bytes; the bound keeps what a client can make the server parse in
/// one request to a fraction of a millisecond.
pub const MAX_SQL_BYTES: usize = 16 * 1024;

/// The deepest expression tree [`parse`] builds, and the deepest it nests
/// parentheses and unary minus while building one. The parser, the
/// executor and `Drop` all recurse over the tree, on threads whose stack is
/// a few MiB; the expressions of real templates are a handful of levels
/// deep (an `IN` list of n items is n + 1).
pub const MAX_EXPR_DEPTH: usize = 128;

/// Parses a single SQL statement (an optional trailing `;` is allowed).
/// Text longer than [`MAX_SQL_BYTES`] and expressions deeper than
/// [`MAX_EXPR_DEPTH`] are refused with [`Error::SqlParse`].
pub fn parse(sql: &str) -> Result<Statement> {
    if sql.len() > MAX_SQL_BYTES {
        return Err(Error::SqlParse(format!(
            "statement of {} bytes; the limit is {MAX_SQL_BYTES}",
            sql.len()
        )));
    }
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params_seen: 0,
        nesting: 0,
    };
    let stmt = p.statement()?;
    p.eat_optional(&Token::Semicolon);
    if !p.at_end() {
        return Err(Error::SqlParse(format!(
            "trailing tokens after statement: {}",
            p.peek().map(ToString::to_string).unwrap_or_default()
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params_seen: usize,
    /// Parentheses and unary minus open around the current token.
    nesting: usize,
}

/// An expression and the depth of its tree (a leaf is 1).
type Sub = (Expr, usize);

fn too_deep() -> Error {
    Error::SqlParse(format!(
        "expression nested deeper than {MAX_EXPR_DEPTH} levels"
    ))
}

/// `lhs op rhs`, refused past [`MAX_EXPR_DEPTH`].
fn binary(op: BinaryOp, (lhs, l): Sub, (rhs, r): Sub) -> Result<Sub> {
    let depth = 1 + l.max(r);
    if depth > MAX_EXPR_DEPTH {
        return Err(too_deep());
    }
    let expr = Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    };
    Ok((expr, depth))
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::SqlParse("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        let got = self.next()?;
        if &got == tok {
            Ok(())
        } else {
            Err(Error::SqlParse(format!("expected {tok}, got {got}")))
        }
    }

    fn eat_optional(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes the next token, requiring it to be an identifier; returns it.
    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(Error::SqlParse(format!("expected identifier, got {other}"))),
        }
    }

    /// Consumes a specific (case-normalised) keyword.
    fn keyword(&mut self, kw: &str) -> Result<()> {
        let got = self.ident()?;
        if got == kw {
            Ok(())
        } else {
            Err(Error::SqlParse(format!("expected {kw}, got {got}")))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        let head = self.ident()?;
        match head.as_str() {
            "create" => {
                if self.eat_keyword("index") {
                    self.create_index()
                } else {
                    self.create_table()
                }
            }
            "select" => self.select(),
            "insert" => self.insert(),
            "update" => self.update(),
            "delete" => self.delete(),
            other => Err(Error::SqlParse(format!("unsupported statement: {other}"))),
        }
    }

    fn create_index(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.keyword("on")?;
        let table = self.ident()?;
        self.expect(&Token::LParen)?;
        let column = self.ident()?;
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
        })
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.keyword("table")?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key: Option<String> = None;
        loop {
            if self.eat_keyword("primary") {
                self.keyword("key")?;
                self.expect(&Token::LParen)?;
                let pk = self.ident()?;
                self.expect(&Token::RParen)?;
                if primary_key.replace(pk).is_some() {
                    return Err(Error::SqlParse("duplicate PRIMARY KEY clause".into()));
                }
            } else {
                let col = self.ident()?;
                let ty = match self.ident()?.as_str() {
                    "int" | "integer" | "bigint" => ColumnType::Int,
                    "float" | "double" | "real" | "numeric" => ColumnType::Float,
                    "text" | "varchar" | "char" | "string" => ColumnType::Text,
                    other => return Err(Error::SqlParse(format!("unknown column type: {other}"))),
                };
                // Optional length like VARCHAR(100): parse and discard.
                if self.eat_optional(&Token::LParen) {
                    match self.next()? {
                        Token::Int(_) => {}
                        other => {
                            return Err(Error::SqlParse(format!("expected length, got {other}")))
                        }
                    }
                    self.expect(&Token::RParen)?;
                }
                let mut nullable = true;
                if self.eat_keyword("not") {
                    self.keyword("null")?;
                    nullable = false;
                } else if self.eat_keyword("null") {
                    // explicit NULL: stays nullable
                } else if self.eat_keyword("primary") {
                    // inline `col TYPE PRIMARY KEY`
                    self.keyword("key")?;
                    if primary_key.replace(col.clone()).is_some() {
                        return Err(Error::SqlParse("duplicate PRIMARY KEY clause".into()));
                    }
                    nullable = false;
                }
                columns.push((col, ty, nullable));
            }
            if !self.eat_optional(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        let primary_key =
            primary_key.ok_or_else(|| Error::SqlParse("missing PRIMARY KEY".into()))?;
        // The primary key column is implicitly NOT NULL.
        for (name_, _, nullable) in &mut columns {
            if *name_ == primary_key {
                *nullable = false;
            }
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
        })
    }

    fn select(&mut self) -> Result<Statement> {
        let cols = if self.eat_optional(&Token::Star) {
            SelectCols::Star
        } else if self.eat_keyword("count") {
            self.expect(&Token::LParen)?;
            self.expect(&Token::Star)?;
            self.expect(&Token::RParen)?;
            SelectCols::CountStar
        } else if matches!(self.peek(), Some(Token::Ident(k))
            if matches!(k.as_str(), "sum" | "min" | "max" | "avg"))
            && self.tokens.get(self.pos + 1) == Some(&Token::LParen)
        {
            let func = match self.ident()?.as_str() {
                "sum" => AggregateFunc::Sum,
                "min" => AggregateFunc::Min,
                "max" => AggregateFunc::Max,
                _ => AggregateFunc::Avg,
            };
            self.expect(&Token::LParen)?;
            let column = self.ident()?;
            self.expect(&Token::RParen)?;
            SelectCols::Aggregate { func, column }
        } else {
            let mut cols = vec![self.ident()?];
            while self.eat_optional(&Token::Comma) {
                cols.push(self.ident()?);
            }
            SelectCols::Columns(cols)
        };
        self.keyword("from")?;
        let table = self.ident()?;
        let filter = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_keyword("order") {
            self.keyword("by")?;
            let col = self.ident()?;
            let dir = if self.eat_keyword("desc") {
                OrderDirection::Desc
            } else {
                self.eat_keyword("asc");
                OrderDirection::Asc
            };
            Some((col, dir))
        } else {
            None
        };
        let limit = if self.eat_keyword("limit") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as u64),
                other => {
                    return Err(Error::SqlParse(format!(
                        "LIMIT expects a non-negative integer, got {other}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Statement::Select {
            cols,
            table,
            filter,
            order_by,
            limit,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.keyword("into")?;
        let table = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = vec![self.ident()?];
        while self.eat_optional(&Token::Comma) {
            columns.push(self.ident()?);
        }
        self.expect(&Token::RParen)?;
        self.keyword("values")?;
        self.expect(&Token::LParen)?;
        let mut values = vec![self.expr()?];
        while self.eat_optional(&Token::Comma) {
            values.push(self.expr()?);
        }
        self.expect(&Token::RParen)?;
        if values.len() != columns.len() {
            return Err(Error::SqlParse(format!(
                "INSERT: {} columns but {} values",
                columns.len(),
                values.len()
            )));
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.keyword("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            let e = self.expr()?;
            sets.push((col, e));
            if !self.eat_optional(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.keyword("from")?;
        let table = self.ident()?;
        let filter = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // Expression grammar (lowest to highest precedence):
    //   or_expr   := and_expr (OR and_expr)*
    //   and_expr  := cmp_expr (AND cmp_expr)*
    //   cmp_expr  := add_expr ((= | <> | < | <= | > | >=) add_expr)?
    //   add_expr  := term ((+|-) term)*
    //   term      := literal | column | ? | ( or_expr ) | - term
    fn expr(&mut self) -> Result<Expr> {
        Ok(self.or_expr()?.0)
    }

    fn or_expr(&mut self) -> Result<Sub> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("or") {
            let rhs = self.and_expr()?;
            lhs = binary(BinaryOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Sub> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_keyword("and") {
            let rhs = self.cmp_expr()?;
            lhs = binary(BinaryOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Sub> {
        let lhs = self.add_expr()?;
        if self.eat_keyword("between") {
            return self.between(lhs);
        }
        if self.eat_keyword("in") {
            return self.in_list(lhs);
        }
        let op = match self.peek() {
            Some(Token::Eq) => BinaryOp::Eq,
            Some(Token::Ne) => BinaryOp::Ne,
            Some(Token::Lt) => BinaryOp::Lt,
            Some(Token::Le) => BinaryOp::Le,
            Some(Token::Gt) => BinaryOp::Gt,
            Some(Token::Ge) => BinaryOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        binary(op, lhs, rhs)
    }

    // `x BETWEEN a AND b` desugars to `x >= a AND x <= b`; `x IN (a, b, c)`
    // desugars to an OR chain of equalities. Both keep the executor simple
    // and let the index planner see plain ranges. They are functions of
    // their own so that `cmp_expr`'s frame, which every nesting level of
    // an expression pays for, stays small.

    fn between(&mut self, lhs: Sub) -> Result<Sub> {
        let lo = self.add_expr()?;
        self.keyword("and")?;
        let hi = self.add_expr()?;
        let ge = binary(BinaryOp::Ge, lhs.clone(), lo)?;
        let le = binary(BinaryOp::Le, lhs, hi)?;
        binary(BinaryOp::And, ge, le)
    }

    fn in_list(&mut self, lhs: Sub) -> Result<Sub> {
        self.expect(&Token::LParen)?;
        let mut alternatives = vec![self.or_expr()?];
        while self.eat_optional(&Token::Comma) {
            alternatives.push(self.or_expr()?);
        }
        self.expect(&Token::RParen)?;
        let mut out: Option<Sub> = None;
        for alt in alternatives {
            let eq = binary(BinaryOp::Eq, lhs.clone(), alt)?;
            out = Some(match out {
                None => eq,
                Some(prev) => binary(BinaryOp::Or, prev, eq)?,
            });
        }
        Ok(out.expect("at least one IN alternative"))
    }

    fn add_expr(&mut self) -> Result<Sub> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.term()?;
            lhs = binary(op, lhs, rhs)?;
        }
    }

    fn term(&mut self) -> Result<Sub> {
        let leaf = match self.next()? {
            Token::Int(i) => Expr::Lit(Value::Int(i)),
            Token::Float(f) => Expr::Lit(Value::Float(f)),
            Token::Str(s) => Expr::Lit(Value::Text(s)),
            Token::Param => {
                let idx = self.params_seen;
                self.params_seen += 1;
                Expr::Param(idx)
            }
            Token::Minus => {
                self.enter()?;
                let e = self.term();
                self.nesting -= 1;
                return negate(e?);
            }
            Token::LParen => {
                self.enter()?;
                let e = self.or_expr();
                self.nesting -= 1;
                let e = e?;
                self.expect(&Token::RParen)?;
                return Ok(e);
            }
            Token::Ident(name) if name == "null" => Expr::Lit(Value::Null),
            Token::Ident(name) => Expr::Column(name),
            other => return Err(unexpected(&other)),
        };
        Ok((leaf, 1))
    }

    /// Goes one level further in, refused past [`MAX_EXPR_DEPTH`]: a
    /// nesting builds no deeper tree, yet the parser recurses for it. The
    /// caller steps back out.
    fn enter(&mut self) -> Result<()> {
        if self.nesting >= MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        self.nesting += 1;
        Ok(())
    }
}

/// Unary minus on a term: folded into a numeric literal, else `0 - e`.
fn negate(e: Sub) -> Result<Sub> {
    match e {
        (Expr::Lit(Value::Int(i)), d) => Ok((Expr::Lit(Value::Int(-i)), d)),
        (Expr::Lit(Value::Float(f)), d) => Ok((Expr::Lit(Value::Float(-f)), d)),
        e => binary(BinaryOp::Sub, (Expr::Lit(Value::Int(0)), 1), e),
    }
}

fn unexpected(token: &Token) -> Error {
    Error::SqlParse(format!("unexpected token {token}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table() {
        let s = parse(
            "CREATE TABLE item (i_id INT, i_title VARCHAR(60) NOT NULL, \
             i_cost FLOAT, PRIMARY KEY (i_id))",
        )
        .unwrap();
        match s {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                assert_eq!(name, "item");
                assert_eq!(primary_key, "i_id");
                assert_eq!(columns.len(), 3);
                // pk implicitly NOT NULL
                assert_eq!(columns[0], ("i_id".into(), ColumnType::Int, false));
                assert_eq!(columns[1], ("i_title".into(), ColumnType::Text, false));
                assert_eq!(columns[2], ("i_cost".into(), ColumnType::Float, true));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parse_inline_primary_key() {
        let s = parse("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").unwrap();
        match s {
            Statement::CreateTable { primary_key, .. } => assert_eq!(primary_key, "id"),
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parse_select_variants() {
        let s = parse("SELECT * FROM t WHERE id = ?").unwrap();
        match &s {
            Statement::Select {
                cols,
                table,
                filter,
                ..
            } => {
                assert_eq!(cols, &SelectCols::Star);
                assert_eq!(table, "t");
                assert!(filter.is_some());
            }
            other => panic!("wrong statement: {other:?}"),
        }
        assert_eq!(s.param_count(), 1);

        let s = parse("SELECT a, b FROM t ORDER BY a DESC LIMIT 10").unwrap();
        match s {
            Statement::Select {
                cols,
                order_by,
                limit,
                ..
            } => {
                assert_eq!(cols, SelectCols::Columns(vec!["a".into(), "b".into()]));
                assert_eq!(order_by, Some(("a".into(), OrderDirection::Desc)));
                assert_eq!(limit, Some(10));
            }
            other => panic!("wrong statement: {other:?}"),
        }

        let s = parse("SELECT COUNT(*) FROM t").unwrap();
        match s {
            Statement::Select { cols, .. } => assert_eq!(cols, SelectCols::CountStar),
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parse_insert() {
        let s = parse("INSERT INTO t (id, v) VALUES (?, 'x')").unwrap();
        match &s {
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns, &vec!["id".to_string(), "v".to_string()]);
                assert_eq!(values[0], Expr::Param(0));
                assert_eq!(values[1], Expr::Lit(Value::Text("x".into())));
            }
            other => panic!("wrong statement: {other:?}"),
        }
        assert!(parse("INSERT INTO t (id, v) VALUES (1)").is_err()); // arity
    }

    #[test]
    fn parse_update_and_delete() {
        let s = parse("UPDATE t SET v = v + 1, w = ? WHERE id = ?").unwrap();
        match &s {
            Statement::Update { sets, filter, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("wrong statement: {other:?}"),
        }
        assert_eq!(s.param_count(), 2);

        let s = parse("DELETE FROM t WHERE id = 3").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
        let s = parse("DELETE FROM t").unwrap();
        assert!(matches!(s, Statement::Delete { filter: None, .. }));
    }

    #[test]
    fn parameter_numbering_is_positional() {
        let s = parse("UPDATE t SET a = ?, b = ? WHERE id = ?").unwrap();
        match s {
            Statement::Update { sets, filter, .. } => {
                assert_eq!(sets[0].1, Expr::Param(0));
                assert_eq!(sets[1].1, Expr::Param(1));
                match filter.unwrap() {
                    Expr::Binary { rhs, .. } => assert_eq!(*rhs, Expr::Param(2)),
                    other => panic!("wrong filter: {other:?}"),
                }
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        // a = 1 OR b = 2 AND c = 3  ==  a = 1 OR (b = 2 AND c = 3)
        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match s {
            Statement::Select {
                filter: Some(f), ..
            } => match f {
                Expr::Binary { op, rhs, .. } => {
                    assert_eq!(op, BinaryOp::Or);
                    assert!(
                        matches!(
                            *rhs,
                            Expr::Binary {
                                op: BinaryOp::And,
                                ..
                            }
                        ),
                        "AND should bind tighter than OR"
                    );
                }
                other => panic!("wrong filter: {other:?}"),
            },
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t extra junk").is_err());
        assert!(parse("CREATE TABLE t (id INT)").is_err()); // no pk
        assert!(parse("SELECT * FROM t LIMIT -1").is_err());
    }

    /// Runs `f` on a thread with 2 MiB of stack, the default for spawned
    /// threads: an unbounded recursion aborts the process there.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    fn refused(sql: &str, why: &str) {
        match parse(sql) {
            Err(Error::SqlParse(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected a parse error about {why}, got {other:?}"),
        }
    }

    #[test]
    fn nested_parentheses_and_minus_are_bounded() {
        on_small_stack(|| {
            let nested =
                |n: usize| format!("SELECT * FROM t WHERE {}1{}", "(".repeat(n), ")".repeat(n));
            assert!(parse(&nested(MAX_EXPR_DEPTH)).is_ok());
            refused(&nested(MAX_EXPR_DEPTH + 1), "deeper");
            refused(&nested(5_000), "deeper");
            // 200 kB: past the text bound before anything is parsed.
            refused(&nested(100_000), "bytes");
            let minus = |n: usize| format!("SELECT * FROM t WHERE a = {}1", "-".repeat(n));
            assert!(parse(&minus(MAX_EXPR_DEPTH)).is_ok());
            refused(&minus(MAX_EXPR_DEPTH + 1), "deeper");
        });
    }

    #[test]
    fn long_operator_chains_are_bounded() {
        on_small_stack(|| {
            // `a + 1 + … + 1` with n additions is a left-deep tree n + 1
            // deep, which the parser builds in a loop and `Drop` recurses.
            let chain = |n: usize| format!("SELECT * FROM t WHERE a{}", " + 1".repeat(n));
            assert!(parse(&chain(MAX_EXPR_DEPTH - 1)).is_ok());
            refused(&chain(MAX_EXPR_DEPTH), "deeper");
            refused(&chain(3_000), "deeper");
            // 800 kB: past the text bound.
            refused(&chain(200_000), "bytes");
            let ors = |n: usize| format!("SELECT * FROM t WHERE a = 1{}", " OR a = 1".repeat(n));
            refused(&ors(MAX_EXPR_DEPTH), "deeper");
            let list = |n: usize| format!("SELECT * FROM t WHERE a IN (1{})", ", 1".repeat(n));
            assert!(parse(&list(3)).is_ok());
            refused(&list(MAX_EXPR_DEPTH), "deeper");
        });
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn negative_literal() {
        let s = parse("SELECT * FROM t WHERE a = -5").unwrap();
        match s {
            Statement::Select {
                filter: Some(f), ..
            } => match f {
                Expr::Binary { rhs, .. } => {
                    assert_eq!(*rhs, Expr::Lit(Value::Int(-5)));
                }
                other => panic!("wrong filter: {other:?}"),
            },
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn null_literal() {
        let s = parse("UPDATE t SET v = NULL WHERE id = 1").unwrap();
        match s {
            Statement::Update { sets, .. } => assert_eq!(sets[0].1, Expr::Lit(Value::Null)),
            other => panic!("wrong statement: {other:?}"),
        }
    }
}
