package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer makes an open-loop worker wait until a due time precisely.
// time.Sleep parks on the runtime's netpoller, whose timeout has
// millisecond granularity once every P is idle, so it would make each
// request up to a millisecond late; a nanosleep would be precise but
// holds the worker's P while the server needs it. A timerfd registered
// with the netpoller gives both: the goroutine parks without a P and
// the kernel's high-resolution timer wakes the poller on time.
type pacer struct {
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil returns at t (at once if t has passed).
func (p *pacer) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	rc, err := p.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err = p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
