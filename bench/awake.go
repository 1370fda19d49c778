package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark is judged on is a small VM on a shared host. A
// vCPU that halts when idle has to win a host CPU back on every wake-up,
// and a closed loop wakes several goroutines per request; and an idle,
// halted vCPU has nothing stolen from it, so /proc/stat cannot tell when
// the host interfered. With both vCPUs kept out of the halted state by
// threads that only ever run when nothing else wants the CPU, every stolen
// tick shows, and six pairs of read_flat runs gave a p50_ms inter-quartile
// range of 10 % of the median against 26 % without (qps 24 % against
// 36 %). So every run keeps the CPUs awake, the same way on every commit
// it measures, and says so in its environment stamp.

const awakeChildArg = "-keep-awake-child"

// What the child answers once its threads have their scheduling class.
const (
	awakeIdle = "sched_idle" // SCHED_IDLE granted: the spinners never take a cycle from the run
	awakeNice = "nice19"     // refused: they compete with it at the lowest nice level
)

// keepAwake starts the spinning child, waits until its threads are set
// up, and returns the scheduling class they got and the function that
// stops the child and waits for it to end.
func keepAwake() (class string, stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(exe, awakeChildArg)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return "", nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	stop = func() {
		_ = stdin.Close() // the child exits on end of input
		_ = cmd.Wait()
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stop()
		return "", nil, fmt.Errorf("keep-awake child: %w", err)
	}
	return strings.TrimSpace(line), stop, nil
}

// awakeChild spins one thread per CPU at the lowest scheduling priority
// until standard input ends — which it also does if the parent dies.
func awakeChild() int {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1) // the spinners never yield their P
	classes := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			// SCHED_IDLE (5) runs only when the CPU would otherwise idle.
			// Both calls apply to the calling thread only.
			param := int32(0)
			class := awakeIdle
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, 5, uintptr(unsafe.Pointer(&param))); errno != 0 {
				class = awakeNice
				_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // best effort; the parent flags the run
			}
			classes <- class
			for {
			}
		}()
	}
	class := awakeIdle
	for i := 0; i < n; i++ {
		if c := <-classes; c != awakeIdle {
			class = c
		}
	}
	fmt.Println(class)
	_, _ = io.Copy(io.Discard, os.Stdin)
	return 0
}

// cpuTicks reads the machine-wide CPU counters: ticks stolen by the host
// and ticks in total.
func cpuTicks() (steal, total float64) {
	file, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealSampler reads the machine's CPU counters every sliceLen for the
// length of a run, so that the run can afterwards be cut into slices of
// known host interference. With the CPUs kept awake every stolen tick is
// visible: an idle, halted vCPU has nothing stolen from it.
type stealSampler struct {
	stop, done   chan struct{}
	at           []time.Time
	steal, total []float64
}

func startStealSampler() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.read()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Duration(sliceLen * float64(time.Second)))
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.read()
			case <-s.stop:
				s.read()
				return
			}
		}
	}()
	return s
}

func (s *stealSampler) read() {
	steal, total := cpuTicks()
	s.at = append(s.at, time.Now())
	s.steal, s.total = append(s.steal, steal), append(s.total, total)
}

// slices stops the sampler and returns the slices that lie inside the
// window beginning at start.
func (s *stealSampler) slices(start time.Time, window time.Duration) []slice {
	close(s.stop)
	<-s.done
	var out []slice
	for i := 0; i+1 < len(s.at); i++ {
		from, to := s.at[i].Sub(start), s.at[i+1].Sub(start)
		if from < 0 || to > window {
			continue
		}
		out = append(out, slice{from: from.Seconds(), to: to.Seconds(),
			steal: stealShare(s.steal[i], s.total[i], s.steal[i+1], s.total[i+1])})
	}
	return out
}

// stealShare is the share of CPU time the host took between two readings.
func stealShare(steal0, total0, steal1, total1 float64) float64 {
	if total1 <= total0 {
		return 0
	}
	return (steal1 - steal0) / (total1 - total0)
}
