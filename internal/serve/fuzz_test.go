package serve

import (
	"testing"
)

// FuzzServeConn delivers arbitrary bytes to a connection in fuzzer-chosen
// chunks over net.Pipe. Whatever arrives, however it is cut: no panic, every
// frame that is answered is answered as the sequential reference answers it,
// nothing else is said, and once the peer closes the connection's goroutine
// returns (overPipe checks all of it).
//
// cuts sizes the chunks: chunk i is 1 + 8*cuts[i mod len] bytes, and a 255
// sends everything left. The checked-in corpus holds wire.AppendFrame
// output — single frames, pipelined runs, both card modes — and truncations,
// bit flips and bad headers of it.
func FuzzServeConn(f *testing.F) {
	m := loadModel(f)
	cfg := Config{CacheEntries: 32}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var chunks [][]byte
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 && cuts[i%len(cuts)] != 255 {
				n = min(n, 1+8*int(cuts[i%len(cuts)]))
			}
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		want, hungUp := sequentialReference(t, m, cfg, data)
		overPipe(t, New(m, cfg), chunks, want, hungUp)
	})
}
