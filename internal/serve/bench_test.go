package serve

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/obs"
	"t3/internal/wire"
)

// BenchmarkServeBatchMiss is the serve_batch_miss shape in one process: each
// of 1, 2 or 4 clients writes 32 request frames at a time over loopback TCP
// to one server and reads the 32 answers before it writes again, each over
// 2048 keys of its own against a shared 1024-entry cache, so every frame is a
// miss the model prices. An op is one 32-frame round trip; us/plan is the wall time over
// every plan answered, so with more clients than cores it is the inverse of
// the server's throughput. hit-share is the cache's share of answers. It
// asserts no timing.
func BenchmarkServeBatchMiss(b *testing.B) {
	const per = 32
	frames := variantFrames(b, 8192, plan.TrueCards)
	var msgs [][]byte
	for i := 0; i+per <= len(frames); i += per {
		var msg []byte
		for _, f := range frames[i : i+per] {
			msg = append(msg, f...)
		}
		msgs = append(msgs, msg)
	}
	for _, conns := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			s := New(loadModel(b), Config{CacheEntries: 1024})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() { _ = s.ServeTCP(l) }()
			clients := make([]net.Conn, conns)
			for i := range clients {
				if clients[i], err = net.Dial("tcp", l.Addr().String()); err != nil {
					b.Fatal(err)
				}
				defer clients[i].Close()
			}
			// Client i cycles through its own quarter of the keys, 2048 of
			// them, which come round too rarely for the cache to still hold.
			roundTrips := func(i, n int) error {
				resp := make([]byte, per*(wire.HeaderSize+8))
				own := msgs[i*len(msgs)/4 : (i+1)*len(msgs)/4]
				for k := range n {
					if _, err := clients[i].Write(own[k%len(own)]); err != nil {
						return err
					}
					if _, err := io.ReadFull(clients[i], resp); err != nil {
						return err
					}
				}
				return nil
			}
			hits0, misses0 := obs.ServeCacheHits.Value(), obs.ServeCacheMisses.Value()
			b.ResetTimer()
			errs := make([]error, conns)
			var wg sync.WaitGroup
			for i := range conns {
				wg.Add(1)
				n := b.N / conns
				if i < b.N%conns {
					n++
				}
				go func() {
					defer wg.Done()
					errs[i] = roundTrips(i, n)
				}()
			}
			wg.Wait()
			b.StopTimer()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			hits, misses := obs.ServeCacheHits.Value()-hits0, obs.ServeCacheMisses.Value()-misses0
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*per), "us/plan")
			b.ReportMetric(float64(hits)/float64(max(1, hits+misses)), "hit-share")
		})
	}
}
