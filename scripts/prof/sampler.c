// Stack sampler as an LD_PRELOAD shim: every 2 ms of process CPU
// (ITIMER_PROF) the thread that is running stores its backtrace() into a
// preallocated buffer; at exit the buffer and /proc/self/maps go to
// $PROF_OUT for scripts/prof/symbolise.py. See docs/PERF.md, "How to
// sample a loop".
//
//   gcc -O2 -shared -fPIC -o /tmp/sampler.so scripts/prof/sampler.c
//   LD_PRELOAD=/tmp/sampler.so PROF_OUT=/tmp/prof.txt <program> <args>
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define MAX_SAMPLES 100000 /* 200 s of CPU; later samples are dropped */
#define MAX_DEPTH 64

static void *stacks[MAX_SAMPLES][MAX_DEPTH];
static int depths[MAX_SAMPLES];
static int taken;

static void on_sigprof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depths[i] = backtrace(stacks[i], MAX_DEPTH);
}

__attribute__((constructor)) static void sampler_start(void) {
    // The first backtrace() loads libgcc and allocates: not from a handler.
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa = {.sa_handler = on_sigprof, .sa_flags = SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 2000}, {0, 2000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.txt", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        fputc('S', out);
        for (int d = 0; d < depths[i]; d++)
            fprintf(out, " %p", stacks[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
