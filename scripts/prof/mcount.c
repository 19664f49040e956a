/* Counts heap calls per thread: preload it, and at exit it writes, per
 * thread name, how many malloc, calloc, realloc and free calls the process
 * made; optionally it records the call stack of every Nth allocation of
 * each thread, in prof.c's format. See README.md. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

/* glibc's own entry points: calling them needs no dlsym, which would
 * allocate before the hooks could forward anything. */
extern void *__libc_malloc(size_t size);
extern void *__libc_calloc(size_t n, size_t size);
extern void *__libc_realloc(void *ptr, size_t size);
extern void __libc_free(void *ptr);

#define MAX_THREADS 4096
#define MAX_TRACES 50000
#define MAX_DEPTH 32

enum { MALLOC, CALLOC, REALLOC, FREE, KINDS };
static const char *const kind_names[KINDS] = {"malloc", "calloc", "realloc", "free"};

struct slot {
    long tid;
    char name[16];
    unsigned long calls[KINDS];
};

/* One slot per thread that ever allocated; the last one is shared by any
 * thread past MAX_THREADS. */
static struct slot slots[MAX_THREADS];
static int claimed;
/* initial-exec: a preloaded library's TLS is in the static block, so a
 * lookup never calls back into malloc. */
static __thread int mine __attribute__((tls_model("initial-exec"))) = -1;

/* Call stacks of sampled allocations (MCOUNT_TRACES): every
 * MCOUNT_TRACE_EVERY-th allocation call of a thread whose name starts
 * with MCOUNT_TRACE_THREADS (any thread if unset). */
struct trace {
    char thread[16];
    int depth;
    void *pc[MAX_DEPTH];
};
static struct trace *traces;
static int traced;
static unsigned long every;
static const char *trace_threads = "";
/* Set while a stack is taken: the unwinder may allocate. */
static __thread int tracing __attribute__((tls_model("initial-exec")));

static void trace(void) {
    tracing = 1;
    int i = __atomic_fetch_add(&traced, 1, __ATOMIC_RELAXED);
    if (i < MAX_TRACES) {
        prctl(PR_GET_NAME, traces[i].thread);
        traces[i].depth = backtrace(traces[i].pc, MAX_DEPTH);
    }
    tracing = 0;
}

__attribute__((constructor)) static void start(void) {
    const char *n = getenv("MCOUNT_TRACE_EVERY");
    if (!getenv("MCOUNT_TRACES") || !n || atol(n) <= 0)
        return;
    traces = __libc_calloc(MAX_TRACES, sizeof *traces);
    if (!traces)
        return;
    if (getenv("MCOUNT_TRACE_THREADS"))
        trace_threads = getenv("MCOUNT_TRACE_THREADS");
    tracing = 1;
    void *warm[2];
    backtrace(warm, 2); /* loads the unwinder before any stack is taken */
    tracing = 0;
    every = (unsigned long)atol(n);
}

static void count(int kind) {
    if (mine < 0) {
        int i = __atomic_fetch_add(&claimed, 1, __ATOMIC_RELAXED);
        mine = i < MAX_THREADS ? i : MAX_THREADS - 1;
        slots[mine].tid = syscall(SYS_gettid);
    }
    struct slot *s = &slots[mine];
    unsigned long n = __atomic_add_fetch(&s->calls[kind], 1, __ATOMIC_RELAXED);
    /* A thread is often named after its first allocations: read the name
     * again at every power of two of each count. */
    if ((n & (n - 1)) == 0)
        prctl(PR_GET_NAME, s->name);
    if (every && kind != FREE && !tracing && n % every == 0 &&
        strncmp(s->name, trace_threads, strlen(trace_threads)) == 0)
        trace();
}

void *malloc(size_t size) {
    count(MALLOC);
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    count(CALLOC);
    return __libc_calloc(n, size);
}

void *realloc(void *ptr, size_t size) {
    count(REALLOC);
    return __libc_realloc(ptr, size);
}

void free(void *ptr) {
    if (ptr)
        count(FREE);
    __libc_free(ptr);
}

/* Output (MCOUNT_TRACES): the process's memory map, a line "--", then one
 * line per sampled allocation: thread name, tab, the stack's program
 * counters from the hook's frame outwards (prof.c's format: sym.py reads
 * it). */
static void dump_traces(void) {
    const char *path = getenv("MCOUNT_TRACES");
    if (!path || !traces)
        return;
    every = 0;
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("--\n", out);
    int n = traced < MAX_TRACES ? traced : MAX_TRACES;
    for (int i = 0; i < n; i++) {
        fprintf(out, "%s\t", traces[i].thread);
        for (int d = 0; d < traces[i].depth; d++)
            fprintf(out, "%p ", traces[i].pc[d]);
        fputc('\n', out);
    }
    fclose(out);
}

/* Output (MCOUNT_OUT): a header line, then one line per thread name with
 * the calls of every thread that carried it, tab-separated, then "total".
 * A thread still running is named as /proc says now, one that exited as
 * it was last seen. */
__attribute__((destructor)) static void dump(void) {
    static struct slot snap[MAX_THREADS];
    static int merged[MAX_THREADS];
    int n = __atomic_load_n(&claimed, __ATOMIC_RELAXED);
    if (n > MAX_THREADS)
        n = MAX_THREADS;
    memcpy(snap, slots, sizeof(struct slot) * (size_t)n);
    dump_traces();
    const char *path = getenv("MCOUNT_OUT");
    if (!path)
        return;
    for (int i = 0; i < n; i++) {
        char comm[64];
        snprintf(comm, sizeof comm, "/proc/self/task/%ld/comm", snap[i].tid);
        FILE *f = fopen(comm, "r");
        if (f && fgets(snap[i].name, sizeof snap[i].name, f))
            snap[i].name[strcspn(snap[i].name, "\n")] = '\0';
        if (f)
            fclose(f);
    }
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fprintf(out, "thread");
    for (int k = 0; k < KINDS; k++)
        fprintf(out, "\t%s", kind_names[k]);
    fputc('\n', out);
    unsigned long total[KINDS] = {0};
    for (int i = 0; i < n; i++) {
        if (merged[i])
            continue;
        unsigned long sum[KINDS] = {0};
        for (int j = i; j < n; j++) {
            if (merged[j] || strcmp(snap[i].name, snap[j].name) != 0)
                continue;
            merged[j] = 1;
            for (int k = 0; k < KINDS; k++)
                sum[k] += snap[j].calls[k];
        }
        fprintf(out, "%s", snap[i].name[0] ? snap[i].name : "?");
        for (int k = 0; k < KINDS; k++) {
            fprintf(out, "\t%lu", sum[k]);
            total[k] += sum[k];
        }
        fputc('\n', out);
    }
    fprintf(out, "total");
    for (int k = 0; k < KINDS; k++)
        fprintf(out, "\t%lu", total[k]);
    fputc('\n', out);
    fclose(out);
}
