/* A sampling profiler for a box without perf, strace or gdb: preload it,
 * and every millisecond of process CPU time (every kernel tick, where that
 * is longer) the thread that is running records its name and its call
 * stack. See README.md. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/time.h>

#define MAX_SAMPLES 200000
#define MAX_DEPTH 48

struct sample {
    char thread[16];
    int depth;
    void *pc[MAX_DEPTH];
};

static struct sample *samples;
static int taken;

static void on_sigprof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
    prctl(PR_GET_NAME, samples[i].thread);
    samples[i].depth = backtrace(samples[i].pc, MAX_DEPTH);
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("PROF_OUT"))
        return;
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    void *warm[2];
    backtrace(warm, 2); /* loads the unwinder outside the handler */
    struct sigaction sa = {.sa_handler = on_sigprof, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

/* Output: the process's memory map (sym.py takes load bases from it), a
 * line "--", then one line per sample: thread name, tab, the stack's
 * program counters from the handler's frame outwards. */
__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("PROF_OUT");
    if (!path || !samples)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fputs("--\n", out);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        fprintf(out, "%s\t", samples[i].thread);
        for (int d = 0; d < samples[i].depth; d++)
            fprintf(out, "%p ", samples[i].pc[d]);
        fputc('\n', out);
    }
    fclose(out);
}
