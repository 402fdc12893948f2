// A user-space sampling profiler for one command, built by
// scripts/profile.sh with the system C compiler.
//
//   profile_sampler OUT HZ -- CMD [ARGS...]
//
// Runs CMD and samples it with perf_event_open: the task clock at HZ
// samples per second, one event per CPU, inherited by every thread CMD
// starts, each sample taking the user-space IP and call chain (frame
// pointers). Kernel frames are excluded, so this works at
// perf_event_paranoid 2, where time spent in the kernel goes unseen.
//
// OUT gets one line per record:
//   S <tid> <ip> <caller> <caller's caller> ...   (hex, leaf first)
//   T <tid> <name>                                 (a thread named or exec'd)
//   F <tid> <parent tid>                           (a thread started)
//   M <a line of CMD's /proc/PID/maps>             (once CMD has exec'd)
//   L <samples the kernel dropped>
//   R <user s> <sys s> <exit status>               (CMD's rusage, last)
// and the exit status is CMD's.

#define _GNU_SOURCE
#include <errno.h>
#include <linux/perf_event.h>
#include <poll.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#define RING_PAGES 64 /* data pages per CPU, a power of two */
#define MAX_CPUS 256

struct ring {
    int fd;
    struct perf_event_mmap_page *meta;
    unsigned char *data;
    uint64_t size;
};

static FILE *out;
static uint64_t lost;

static void die(const char *what) {
    perror(what);
    exit(2);
}

/* Copies `len` bytes at ring offset `at`, wrapping at its end. */
static void ring_copy(const struct ring *r, uint64_t at, void *dst, size_t len) {
    uint64_t off = at & (r->size - 1);
    size_t first = len < r->size - off ? len : r->size - off;
    memcpy(dst, r->data + off, first);
    memcpy((unsigned char *)dst + first, r->data, len - first);
}

static void drain(struct ring *r) {
    static unsigned char rec[65536];
    uint64_t head = __atomic_load_n(&r->meta->data_head, __ATOMIC_ACQUIRE);
    uint64_t tail = r->meta->data_tail;
    while (tail < head) {
        struct perf_event_header h;
        ring_copy(r, tail, &h, sizeof h);
        if (h.size < sizeof h) /* a u16: never past `rec` */
            break;
        ring_copy(r, tail, rec, h.size);
        if (h.type == PERF_RECORD_SAMPLE) {
            /* ip, pid/tid, nr, ips[nr] */
            uint64_t *p = (uint64_t *)(rec + sizeof h);
            uint64_t ip = p[0];
            uint32_t tid = (uint32_t)(p[1] >> 32);
            uint64_t nr = p[2];
            int leaf = 1;
            fprintf(out, "S %u %llx", tid, (unsigned long long)ip);
            for (uint64_t i = 0; i < nr && 3 + i < (h.size - sizeof h) / 8; i++) {
                uint64_t at = p[3 + i];
                if (at >= (uint64_t)PERF_CONTEXT_MAX)
                    continue; /* a context marker, not a frame */
                /* The chain repeats the sample's own IP first. */
                if (!(leaf && at == ip))
                    fprintf(out, " %llx", (unsigned long long)at);
                leaf = 0;
            }
            fputc('\n', out);
        } else if (h.type == PERF_RECORD_COMM) {
            /* pid, tid, then the NUL-terminated name */
            uint32_t *ids = (uint32_t *)(rec + sizeof h);
            const char *comm = (const char *)(ids + 2);
            size_t room = h.size - sizeof h - 2 * sizeof *ids;
            fprintf(out, "T %u %.*s\n", ids[1], (int)strnlen(comm, room), comm);
        } else if (h.type == PERF_RECORD_FORK) {
            /* pid, ppid, tid, ptid: a thread keeps its parent's name */
            uint32_t *ids = (uint32_t *)(rec + sizeof h);
            fprintf(out, "F %u %u\n", ids[2], ids[3]);
        } else if (h.type == PERF_RECORD_LOST) {
            lost += ((uint64_t *)(rec + sizeof h))[1];
        }
        tail += h.size;
    }
    __atomic_store_n(&r->meta->data_tail, tail, __ATOMIC_RELEASE);
}

/* Writes CMD's maps once it has exec'd `path`; returns whether it did. */
static int dump_maps(pid_t pid, const char *path) {
    char name[64], line[4096];
    snprintf(name, sizeof name, "/proc/%d/maps", pid);
    FILE *maps = fopen(name, "r");
    if (!maps)
        return 0;
    char *all = NULL;
    size_t len = 0;
    FILE *buf = open_memstream(&all, &len);
    int found = 0;
    while (fgets(line, sizeof line, maps)) {
        found |= strstr(line, path) != NULL;
        fprintf(buf, "M %s", line);
    }
    fclose(maps);
    fclose(buf);
    if (found)
        fputs(all, out);
    free(all);
    return found;
}

int main(int argc, char **argv) {
    if (argc < 5 || strcmp(argv[3], "--") != 0) {
        fprintf(stderr, "usage: %s OUT HZ -- CMD [ARGS...]\n", argv[0]);
        return 2;
    }
    out = fopen(argv[1], "w");
    if (!out)
        die(argv[1]);
    char **cmd = argv + 4;
    char *path = realpath(cmd[0], NULL);
    if (!path)
        die(cmd[0]);

    int go[2];
    if (pipe(go))
        die("pipe");
    pid_t pid = fork();
    if (pid < 0)
        die("fork");
    if (pid == 0) {
        char c;
        close(go[1]);
        if (read(go[0], &c, 1) != 1)
            _exit(127);
        execv(path, cmd);
        _exit(127);
    }
    close(go[0]);

    long page = sysconf(_SC_PAGESIZE);
    long ncpu = sysconf(_SC_NPROCESSORS_CONF);
    if (ncpu > MAX_CPUS)
        ncpu = MAX_CPUS;
    struct ring rings[MAX_CPUS];
    struct pollfd fds[MAX_CPUS];
    for (long cpu = 0; cpu < ncpu; cpu++) {
        struct perf_event_attr attr;
        memset(&attr, 0, sizeof attr);
        attr.size = sizeof attr;
        attr.type = PERF_TYPE_SOFTWARE;
        attr.config = PERF_COUNT_SW_TASK_CLOCK;
        attr.freq = 1;
        attr.sample_freq = strtoull(argv[2], NULL, 10);
        attr.sample_type = PERF_SAMPLE_IP | PERF_SAMPLE_TID | PERF_SAMPLE_CALLCHAIN;
        attr.disabled = 1;
        attr.enable_on_exec = 1;
        attr.inherit = 1;
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        attr.exclude_callchain_kernel = 1;
        attr.comm = 1;
        attr.task = 1;
        attr.wakeup_events = 64;
        int fd = syscall(SYS_perf_event_open, &attr, pid, (int)cpu, -1, PERF_FLAG_FD_CLOEXEC);
        if (fd < 0) {
            kill(pid, SIGKILL);
            die("perf_event_open");
        }
        size_t len = (size_t)(RING_PAGES + 1) * page;
        void *base = mmap(NULL, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
        if (base == MAP_FAILED) {
            kill(pid, SIGKILL);
            die("mmap");
        }
        rings[cpu] = (struct ring){fd, base, (unsigned char *)base + page, (uint64_t)RING_PAGES * page};
        fds[cpu] = (struct pollfd){fd, POLLIN, 0};
    }
    if (write(go[1], "", 1) != 1)
        die("release");
    close(go[1]);

    int mapped = 0, status = 0;
    struct rusage use;
    for (;;) {
        poll(fds, (nfds_t)ncpu, 20);
        for (long cpu = 0; cpu < ncpu; cpu++)
            drain(&rings[cpu]);
        if (!mapped)
            mapped = dump_maps(pid, path);
        pid_t done = wait4(pid, &status, WNOHANG, &use);
        if (done == pid)
            break;
        if (done < 0 && errno != EINTR)
            die("wait4");
    }
    for (long cpu = 0; cpu < ncpu; cpu++)
        drain(&rings[cpu]);
    fprintf(out, "L %llu\n", (unsigned long long)lost);
    fprintf(out, "R %ld.%06ld %ld.%06ld %d\n", (long)use.ru_utime.tv_sec, (long)use.ru_utime.tv_usec,
            (long)use.ru_stime.tv_sec, (long)use.ru_stime.tv_usec,
            WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status));
    fclose(out);
    free(path);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
