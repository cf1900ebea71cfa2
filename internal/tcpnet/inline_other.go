//go:build !linux

package tcpnet

import (
	"errors"
	"net"
	"syscall"
)

// rawOf returns nil: outside Linux every frame goes through the link's
// writer goroutine.
func rawOf(net.Conn) syscall.RawConn { return nil }

// inlineWriter is unused where rawOf returns nil.
type inlineWriter struct{}

func (*inlineWriter) write(syscall.RawConn, []byte, []byte) (int, error) {
	return 0, errors.ErrUnsupported
}
