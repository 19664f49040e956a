//! Raw-connection helpers shared by the integration tests that speak the
//! wire protocol themselves instead of through `RemoteSession`.
#![allow(dead_code)] // each test binary uses its own subset

use bargain_common::{TemplateId, Value};
use bargain_net::{ConnectPolicy, Connection, Message};

/// Prepares `sql` as a one-statement template on `conn`.
pub fn prepare(conn: &mut Connection, sql: &str) -> TemplateId {
    let prepare = Message::Prepare {
        name: "raw".into(),
        sqls: vec![sql.into()],
    };
    match conn.call(&prepare).unwrap() {
        Message::Prepared { template } => template,
        other => panic!("expected Prepared, got kind {}", other.kind()),
    }
}

/// A raw connection with a session open and `sql` prepared.
pub fn raw_session(addr: &str, sql: &str) -> (Connection, TemplateId) {
    let mut conn = Connection::connect(addr, &ConnectPolicy::default()).unwrap();
    conn.call(&Message::Hello).unwrap();
    conn.call(&Message::OpenSession).unwrap();
    let template = prepare(&mut conn, sql);
    (conn, template)
}

/// A one-statement `Run` of `template`.
pub fn run(template: TemplateId, params: Vec<Value>) -> Message {
    Message::Run {
        template,
        params: vec![params],
        idem: None,
    }
}
