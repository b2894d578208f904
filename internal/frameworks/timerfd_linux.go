package frameworks

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

func init() { sleepUntil = sleepKicked }

// sleepKicked sleeps until deadline and kicks the idle runtime awake then:
// os.NewFile registered the timerfd, edge-triggered, with the netpoller, so
// its expiry at the deadline ends a millisecond epoll_wait. Nobody reads
// the fd; each arming resets its expiry count and so gives a fresh edge.
// Arming before the Sleep starts means it fires no earlier than the Sleep's
// timer is due (an earlier fire costs another 1 ms wait). Without an fd,
// or if arming fails, the wait is a plain Sleep.
func sleepKicked(deadline time.Time) {
	d := time.Until(deadline)
	if d <= 0 {
		return
	}
	if w := takeWakeFd(); w != nil {
		spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // {interval, value}
		syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		defer giveWakeFd(w)
	}
	time.Sleep(time.Until(deadline))
}

// wakeFd is a netpoll-registered timerfd; f keeps it open. fd is the raw
// descriptor: f.Fd() would switch it to blocking mode, out of the poller.
type wakeFd struct {
	f  *os.File
	fd uintptr
}

// wakeFds holds idle timerfds. A wait takes one or opens one, and gives it
// back or, with the list full, closes it, so at most cap(wakeFds) stay open
// between waits.
var wakeFds = make(chan *wakeFd, 64)

func takeWakeFd() *wakeFd {
	select {
	case w := <-wakeFds:
		return w
	default:
	}
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	return &wakeFd{f: os.NewFile(fd, "timerfd"), fd: fd}
}

func giveWakeFd(w *wakeFd) {
	select {
	case wakeFds <- w:
	default:
		w.f.Close()
	}
}
