/* SIGPROF sampling profiler, loaded with LD_PRELOAD into one process.
 *
 * setitimer(ITIMER_PROF) fires on the CPU time of this process only; each
 * tick records the interrupted instruction pointer. At exit the samples
 * and this process's memory map go to $SAMPLER_OUT (default prof.out),
 * for report.py to symbolise. The timer asks for a 1 ms interval; the
 * kernel rounds it up to its tick.
 *
 *   cc -O2 -shared -fPIC -o sampler.so sampler.c
 *   SAMPLER_OUT=run.prof LD_PRELOAD=./sampler.so ./program args...
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static uintptr_t samples[MAX_SAMPLES];
static volatile unsigned long n_samples;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (uintptr_t)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "prof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    fputs("# maps\n", out);
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    fprintf(out, "# samples %lu\n", n);
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "%lx\n", (unsigned long)samples[i]);
    fclose(out);
}
