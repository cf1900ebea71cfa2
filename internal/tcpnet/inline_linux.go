//go:build linux

package tcpnet

import (
	"net"
	"syscall"
	"unsafe"
)

// rawOf returns c's raw handle for inline writes, or nil when c has none.
// It allocates once per connection, when the link adopts it.
func rawOf(c net.Conn) syscall.RawConn {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return raw
}

// inlineWriter writes one frame, [prefix, payload], with a single
// non-blocking writev on the calling goroutine. It lives in the link and
// is used only by the holder of the link's write role, so the iovecs and
// the bound callback are reused and a write allocates nothing.
type inlineWriter struct {
	iov   [2]syscall.Iovec
	niov  int
	n     int
	errno syscall.Errno
	fn    func(fd uintptr) bool // w.writev, bound once
}

// write reports how many bytes of the frame reached the socket. Fewer
// than all of them with a nil error means the socket buffer is full: the
// callback returns true after any outcome, so RawConn.Write never parks
// to wait for writability.
func (w *inlineWriter) write(raw syscall.RawConn, pre, payload []byte) (int, error) {
	if w.fn == nil {
		w.fn = w.writev
	}
	w.iov[0].Base = &pre[0]
	w.iov[0].SetLen(len(pre))
	w.niov = 1
	if len(payload) > 0 {
		w.iov[1].Base = &payload[0]
		w.iov[1].SetLen(len(payload))
		w.niov = 2
	}
	err := raw.Write(w.fn)
	w.iov = [2]syscall.Iovec{} // do not pin the payload
	if err != nil {
		return 0, err
	}
	if w.errno != 0 && w.errno != syscall.EAGAIN {
		return 0, w.errno
	}
	return w.n, nil
}

func (w *inlineWriter) writev(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&w.iov[0])), uintptr(w.niov))
		if errno == syscall.EINTR {
			continue
		}
		w.n, w.errno = int(n), errno
		if errno != 0 {
			w.n = 0
		}
		return true
	}
}
