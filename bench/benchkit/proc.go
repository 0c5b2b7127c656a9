package benchkit

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// CPUTime returns the user+system CPU time this process has consumed.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// HostCPU is the machine-wide CPU accounting of /proc/stat's first line, in
// clock ticks summed over all CPUs: Steal is time the hypervisor ran someone
// else while this VM wanted to run, Busy is user+nice+system+irq+softirq of
// every process, Total is everything including idle and steal.
type HostCPU struct{ Busy, Steal, Total float64 }

// ReadHostCPU reads /proc/stat; ok is false where it cannot be read.
func ReadHostCPU() (h HostCPU, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h, false
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return h, false
		}
		h.Total += v
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			h.Steal += v
		default:
			h.Busy += v
		}
	}
	return h, true
}

// procStatusKB reads one "Vm…:  123 kB" field of /proc/self/status.
func procStatusKB(field string) int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		f := strings.Fields(line[len(field)+1:])
		if len(f) == 0 {
			return 0
		}
		n, _ := strconv.ParseInt(f[0], 10, 64)
		return n
	}
	return 0
}

// PeakRSSKB is the process's resident-set high-water mark (VmHWM).
func PeakRSSKB() int64 { return procStatusKB("VmHWM") }

// RSSKB is the current resident set (VmRSS).
func RSSKB() int64 { return procStatusKB("VmRSS") }

// tmpfsMagic is TMPFS_MAGIC from linux/magic.h.
const tmpfsMagic = 0x01021994

// IsTmpfs reports whether dir sits on a tmpfs mount.
func IsTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	return int64(st.Type) == tmpfsMagic
}
