package kick

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// wakeFd is a netpoll-registered timerfd; f keeps it open. fd is the raw
// descriptor: f.Fd() would switch it to blocking mode, out of the poller.
// Nobody reads it: each arming resets its expiry count, so each expiry is a
// fresh edge.
type wakeFd struct {
	f  *os.File
	fd uintptr
}

// wakeFds holds idle wake fds: a wait takes or opens one and gives it back
// or, with the list full, closes it, so at most cap(wakeFds) stay open.
var wakeFds = make(chan *wakeFd, 64)

// arm arms w, or a pooled or new wake fd, to expire d from now: nil if none.
func arm(w *wakeFd, d time.Duration) *wakeFd {
	if w == nil {
		select {
		case w = <-wakeFds:
		default:
			fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
			if errno != 0 {
				return nil
			}
			w = &wakeFd{f: os.NewFile(fd, "timerfd"), fd: fd}
		}
	}
	settime(w.fd, d)
	return w
}

// give pools w, if any, or closes it. SleepUntil gives its fd back
// undisarmed: it expires about when the sleep ends.
func give(w *wakeFd) {
	if w == nil {
		return
	}
	select {
	case wakeFds <- w:
	default:
		w.f.Close()
	}
}

// settime arms fd for d from now; 0 disarms it. A failed arming leaves the
// wait a plain timer.
func settime(fd uintptr, d time.Duration) {
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // {interval, value}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}
