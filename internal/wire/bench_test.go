package wire

import (
	"strconv"
	"testing"
)

var benchSink []byte

// BenchmarkWireMarshalBytes is the argument encode of the benchmark's
// stream_small (32 B) and stream_bulk (16 KiB) workloads. CI holds both
// to one allocation: the result, sized before it is made.
func BenchmarkWireMarshalBytes(b *testing.B) {
	for _, n := range []int{32, 16384} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			var arg any = make([]byte, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink, _ = Marshal(arg)
			}
		})
	}
}
