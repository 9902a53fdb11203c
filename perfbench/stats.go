package main

// Measurement helpers: quantiles and the /proc and rusage readings of
// the process that hosts the system under test.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the Harrell–Davis estimate of the q-quantile of xs
// (NaN when empty): a Beta-weighted average of every order statistic.
// Unlike a single order statistic it moves smoothly with the sample,
// which keeps the median of a workload that alternates a fast and a
// slow job shape from jumping between the two with the job count.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cdf := betaInc(a, b, float64(i)/float64(n))
		est += (cdf - prev) * s[i-1]
		prev = cdf
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, betacf).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, aa := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + aa*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + aa/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-12 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user plus system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

func selfPID() int { return os.Getpid() }

// selfCPU returns this process's user plus system CPU time at rusage
// (microsecond) resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procMemMB returns a memory line of /proc/<pid>/status (VmHWM, VmRSS)
// in MB.
func procMemMB(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// resetPeak resets a process's VmHWM to its current resident size, so
// that peak_rss_mb covers the timed window, not the set-up repeats
// before it.
func resetPeak(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// runtimeSample is the allocation and GC-CPU state of this process.
type runtimeSample struct {
	mallocs    uint64
	gcCPU, cpu float64 // seconds
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

// allocsPerJob and gcFraction compare two samples taken around jobs.
func allocsPerJob(a, b runtimeSample, jobs int) float64 {
	return float64(b.mallocs-a.mallocs) / float64(max(jobs, 1))
}

func gcFraction(a, b runtimeSample) float64 {
	if b.cpu <= a.cpu {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.cpu - a.cpu)
}

// ms, us convert durations to float milliseconds and microseconds.
func ms(d float64) float64 { return d / float64(time.Millisecond) }
func us(d float64) float64 { return d / float64(time.Microsecond) }

// sliceLen is the length of the slices a service window is cut into.
const sliceLen = time.Second

// cpuSampler reads a process's CPU time at every slice boundary while
// a window runs.
type cpuSampler struct {
	pid  int
	at   []time.Time
	cpu  []time.Duration
	err  error
	stop chan struct{}
	done chan struct{}
}

// sampleCPU takes a first sample now and one every sliceLen until
// finish.
func sampleCPU(pid int) *cpuSampler {
	s := &cpuSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *cpuSampler) sample() {
	c, err := procCPU(s.pid)
	if err != nil && s.err == nil {
		s.err = err
	}
	s.at = append(s.at, time.Now())
	s.cpu = append(s.cpu, c)
}

// finish stops the sampler after a last sample.
func (s *cpuSampler) finish() error {
	close(s.stop)
	<-s.done
	s.sample()
	return s.err
}

// sliceMetrics fills the end-to-end latency, throughput and CPU
// metrics of a service window from its one-second slices: each is the
// median over the slices of that slice's figure (jobs are placed by
// completion time), which keeps one slice's garbage-collection cycle
// or a neighbour's burst on the machine from moving the run's figure.
// p99 needs more samples than a slice holds and is taken over the
// whole window.
func sliceMetrics(v map[string]float64, w window, s *cpuSampler) {
	// A trailing slice shorter than half a slice is dropped, unless the
	// window is that one slice.
	last := len(s.at) - 1
	if last >= 2 && s.at[last].Sub(s.at[last-1]) < sliceLen/2 {
		last--
	}
	var tput, cpu, p50, p90 []float64
	for k := 0; k < last; k++ {
		a, b := s.at[k], s.at[k+1]
		var lat []float64
		for i, t := range w.done {
			if !t.Before(a) && t.Before(b) {
				lat = append(lat, w.lat[i])
			}
		}
		if len(lat) == 0 {
			continue
		}
		tput = append(tput, float64(len(lat))/b.Sub(a).Seconds())
		cpu = append(cpu, ms(float64(s.cpu[k+1]-s.cpu[k]))/float64(len(lat)))
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
	}
	v["jobs_per_s"] = median(tput)
	v["cpu_ms_per_job"] = median(cpu)
	v["job_p50_ms"] = ms(median(p50))
	v["job_p90_ms"] = ms(median(p90))
	v["job_p99_ms"] = ms(quantile(w.lat, 0.99))
}
