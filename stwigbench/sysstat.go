package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stwig/internal/journal"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the host's aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readSteal() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	var t cpuTicks
	for i, s := range fields[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		// guest and guest_nice (fields 9, 10) are already counted in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// pctSince is the share of host CPU time stolen by the hypervisor between
// two readings, in percent.
func (t cpuTicks) pctSince(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return 100 * float64(t.steal-before.steal) / float64(t.total-before.total)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// scanJournal times journal.ScanFile over a closed node's namespace
// journal, in milliseconds.
func scanJournal(dataDir string) float64 {
	start := time.Now()
	_, _, _ = journal.ScanFile(filepath.Join(dataDir, "ns", nsName, "journal.wal")) // the reopen that follows reports any damage
	return ms(time.Since(start))
}
