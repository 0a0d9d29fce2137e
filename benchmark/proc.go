package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// selfCPUSeconds is utime+stime of this process (getrusage).
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// pidCPUSeconds is utime+stime of another live process, read from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised
// command name, which may itself contain spaces).
func pidCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat of %d: no command name", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat of %d: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat of %d: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return (ut + st) / clockTick, nil
}

// statusKB reads one "Key:   N kB" line of /proc/<pid>/status
// ("self" for this process), in kB.
func statusKB(pid, key string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, key)
}

// peakRSSMB is VmHWM of the process in MB.
func peakRSSMB(pid string) float64 {
	kb, err := statusKB(pid, "VmHWM")
	if err != nil {
		return 0
	}
	return kb / 1024
}

// cpuInfo describes the host from /proc/cpuinfo. The
// kernels in internal/matmul dispatch on the same CPUID bit the avx2
// flag reports.
func cpuInfo() (model string, avx2 bool) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", false
	}
	model = "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if slices.Contains(strings.Fields(v), "avx2") {
				avx2 = true
			}
		}
	}
	return model, avx2
}

// llcBytes is the size of the largest cache level of cpu0 from sysfs, or
// 32 MiB when sysfs does not say.
func llcBytes() int {
	best := 0
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil && n*mult > best {
			best = n * mult
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}
