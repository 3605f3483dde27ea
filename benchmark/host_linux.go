package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// alarm wakes the load generator at its ticks. It is a timerfd read
// through the runtime's network poller, so a tick reaches the generator
// the way a tuple from a socket reaches a source: the goroutine parks
// (its P goes on to run what Publish made runnable — a generator asleep in
// a plain nanosleep keeps its P, and whether another thread stole that
// work in time or not put whole deployments into one of two latency
// modes a factor of two apart) and a high-resolution timer, not subject
// to the thread's 50 µs timer slack, makes it runnable again. time.Sleep
// would round a sub-millisecond wait up to a millisecond whenever every
// P is idle, which at the held rates is most ticks.
type alarm struct {
	fd uintptr
	f  *os.File // fd, registered with the poller (File.Fd would make it blocking)
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newAlarm() (*alarm, error) {
	fd, _, e := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	return &alarm{fd, os.NewFile(fd, "timerfd")}, nil
}

func (a *alarm) close() { _ = a.f.Close() }

// sleepUntil blocks until the benchmark clock reads due.
func (a *alarm) sleepUntil(due int64) error {
	var expirations [8]byte
	for wait := due - nowNs(); wait > 0; wait = due - nowNs() {
		// {interval, value}: one shot, `wait` from now.
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(wait)}
		if _, _, e := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
			return fmt.Errorf("timerfd_settime: %w", e)
		}
		if _, err := a.f.Read(expirations[:]); err != nil {
			return err
		}
	}
	return nil
}

const (
	schedIdle = 5 // SCHED_IDLE
	spinEnv   = "COSMOS_BENCHMARK_SPIN"
)

// cpuMask is a CPU set as sched_setaffinity takes it: 1024 CPUs.
type cpuMask [1024 / 64]uint64

// keepAwake starts one child per CPU the process may run on that spins
// in the SCHED_IDLE class, pinned to that CPU, and returns the call that
// kills them and waits.
//
// A virtual CPU with nothing to run halts, and the host takes from 50 µs
// to several milliseconds — by the minute, with its other tenants — to
// run it again: on the reference box that wake-up, not COSMOS, was nine
// tenths of a held-rate latency and half of a saturation phase's wall
// time (48 % steal). A SCHED_IDLE task runs only when its CPU has nothing
// else and yields to any waking thread at once, so the spinners keep the
// CPUs from halting and take nothing from the system under test. They
// are processes of their own so that their CPU time is not the
// benchmark's.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var kids []*exec.Cmd
	stop = func() {
		for _, c := range kids {
			_ = c.Process.Kill()
			_ = c.Wait() // "signal: killed" is the expected end
		}
	}
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		c := exec.Command(self)
		c.Env = append(os.Environ(), fmt.Sprintf("%s=%d", spinEnv, cpu))
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		ready, err := c.StdoutPipe()
		if err == nil {
			err = c.Start()
		}
		if err != nil {
			stop()
			return nil, err
		}
		kids = append(kids, c)
		// The spinner writes one byte once it is pinned and demoted.
		if _, err := ready.Read(make([]byte, 1)); err != nil {
			stop()
			return nil, fmt.Errorf("the spinner for CPU %d did not start: %w", cpu, err)
		}
	}
	return stop, nil
}

// spinIfAsked turns the process into a spinner when keepAwake started
// it. It does not return then.
func spinIfAsked() {
	v := os.Getenv(spinEnv)
	if v == "" {
		return
	}
	var cpu int
	var mask cpuMask
	if _, err := fmt.Sscanf(v, "%d", &cpu); err != nil || cpu < 0 || cpu >= len(mask)*64 {
		os.Exit(2)
	}
	runtime.LockOSThread()
	mask[cpu/64] = 1 << (cpu % 64)
	// Either call failing leaves a spinner that competes at normal
	// priority, which would distort every metric: give up instead.
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		os.Exit(3)
	}
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		os.Exit(3)
	}
	if _, err := os.Stdout.Write([]byte{'\n'}); err != nil {
		os.Exit(3)
	}
	parent := os.Getppid()
	for {
		for i := 0; i < 1<<24; i++ {
			spinSink++
		}
		if os.Getppid() != parent { // orphaned before Pdeathsig was armed
			os.Exit(0)
		}
	}
}

var spinSink uint64
