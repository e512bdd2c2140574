/* SIGPROF sampling profiler, loaded with LD_PRELOAD into one process.
 *
 * setitimer(ITIMER_PROF) fires on the CPU time of this process only; each
 * tick records the interrupted instruction pointer. The process's
 * malloc/calloc/realloc calls are counted too: the sampler defines them
 * and forwards each to the C library's own. At exit the allocation count,
 * the samples and this process's memory map go to $SAMPLER_OUT (default
 * prof.out), for report.py to symbolise. The timer asks for a 1 ms
 * interval; the kernel rounds it up to its tick.
 *
 *   cc -O2 -shared -fPIC -o sampler.so sampler.c -ldl
 *   SAMPLER_OUT=run.prof LD_PRELOAD=./sampler.so ./program args...
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static uintptr_t samples[MAX_SAMPLES];
static volatile unsigned long n_samples;

/* ---- allocation counting ------------------------------------------- */

static unsigned long n_allocs;
static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static void (*real_free)(void *);

/* dlsym may allocate while the real functions are being looked up. Every
 * request made then is served from this buffer, whose blocks are never
 * freed, and a free made then is dropped; so resolve() never re-enters. */
static _Alignas(16) char boot[1 << 14];
static size_t boot_used;
static int resolving;

static int in_boot(const void *p) {
    return (const char *)p >= boot && (const char *)p < boot + sizeof boot;
}

static void *boot_alloc(size_t n) {
    size_t at = (boot_used + 15) & ~(size_t)15;
    if (n > sizeof boot - at)
        return NULL;
    boot_used = at + n;
    return boot + at; /* static storage: already zero */
}

static void resolve(void) {
    resolving = 1;
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_free = dlsym(RTLD_NEXT, "free");
    resolving = 0;
}

void *malloc(size_t n) {
    __atomic_fetch_add(&n_allocs, 1, __ATOMIC_RELAXED);
    if (resolving)
        return boot_alloc(n);
    if (!real_malloc)
        resolve();
    return real_malloc(n);
}

void *calloc(size_t k, size_t n) {
    __atomic_fetch_add(&n_allocs, 1, __ATOMIC_RELAXED);
    if (resolving)
        return n && k > (size_t)-1 / n ? NULL : boot_alloc(k * n);
    if (!real_calloc)
        resolve();
    return real_calloc(k, n);
}

void *realloc(void *p, size_t n) {
    __atomic_fetch_add(&n_allocs, 1, __ATOMIC_RELAXED);
    if (!resolving && !real_realloc)
        resolve();
    /* While resolving, p is NULL or a boot block: nothing else exists yet. */
    if (resolving || in_boot(p)) {
        /* A boot block's size is unknown; copy what fits in the buffer. The
         * new block may follow p inside the buffer, hence memmove. */
        void *q = resolving ? boot_alloc(n) : real_malloc(n);
        if (q && p) {
            size_t left = (size_t)(boot + sizeof boot - (char *)p);
            memmove(q, p, n < left ? n : left);
        }
        return q;
    }
    return real_realloc(p, n);
}

void free(void *p) {
    if (resolving || in_boot(p))
        return;
    if (!real_free)
        resolve();
    real_free(p);
}

/* ---- sampling ------------------------------------------------------- */

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (uintptr_t)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    if (!real_malloc)
        resolve();
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
    fprintf(out, "# allocs %lu\n", __atomic_load_n(&n_allocs, __ATOMIC_RELAXED));
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
