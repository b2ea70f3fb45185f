package ctrl

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"t3/internal/engine/plan"
	"t3/internal/serve"
	"t3/internal/wire"
	"t3/internal/workload"
)

// driftingSource makes every retrain attempt see a slower workload than the
// last, starting from twice the seed model's, so every candidate wins the
// shadow comparison and every promoted model is genuinely different.
type driftingSource struct {
	inst    *workload.Instance
	workers int
}

func (s *driftingSource) CollectLabels(attempt int) (*workload.LabelSet, error) {
	cfg := collectConfig(float64(2+attempt), s.workers)
	return workload.CollectLabels(s.inst, cfg)
}

// TestConcurrentTrafficAcrossControllerSwaps hammers both binary endpoints
// — HTTP /predict.bin and the raw TCP listener — while the controller
// promotes a stream of retrained models through the server's atomic swap.
// Every request must get a valid response frame: zero failures, under
// -race in CI.
func TestConcurrentTrafficAcrossControllerSwaps(t *testing.T) {
	srv := serve.New(seedModel(t), serve.Config{})
	h := httptest.NewServer(srv.PredictBinHandler())
	defer h.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.ServeTCP(l) }()

	c, err := New(Config{
		Registry: openRegistry(t),
		Source:   &driftingSource{inst: ctrlInstance(t), workers: 2},
		Swapper:  srv,
		Train:    trainWith(testParams()),
	})
	if err != nil {
		t.Fatal(err)
	}

	frames := make([][]byte, 0, 4)
	for _, root := range samplePlans(t)[:4] {
		frames = append(frames, wire.AppendFrame(nil, root, plan.TrueCards))
	}

	var failures atomic.Int64
	var requests atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// HTTP clients.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				frame := frames[(g+i)%len(frames)]
				resp, err := client.Post(h.URL, "application/octet-stream", bytes.NewReader(frame))
				if err != nil {
					failures.Add(1)
					continue
				}
				var buf bytes.Buffer
				_, _ = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if ns, err := wire.ParseResponse(buf.Bytes()); err != nil || ns <= 0 {
					failures.Add(1)
					continue
				}
				requests.Add(1)
			}
		}(g)
	}
	// TCP clients, one connection each, strict request/response lockstep.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				failures.Add(1)
				return
			}
			defer conn.Close()
			rd := bufio.NewReader(conn)
			resp := make([]byte, wire.HeaderSize+8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				frame := frames[(g+2*i)%len(frames)]
				if _, err := conn.Write(frame); err != nil {
					failures.Add(1)
					return
				}
				if _, err := ioReadFull(rd, resp); err != nil {
					failures.Add(1)
					return
				}
				if ns, err := wire.ParseResponse(resp); err != nil || ns <= 0 {
					failures.Add(1)
					continue
				}
				requests.Add(1)
			}
		}(g)
	}

	// The clients must be under way before the first swap: on one core four
	// short retrain episodes can be over before a client goroutine has run.
	for deadline := time.Now().Add(10 * time.Second); requests.Load() == 0 && failures.Load() == 0; {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("no request completed within 10 s")
		}
		time.Sleep(time.Millisecond)
	}

	// Swap pressure: each Retrain trains on a different drift scale and
	// promotes, so the model pointer and cache generation churn under the
	// live traffic above.
	gen0 := srv.CacheGeneration()
	const episodes = 4
	for i := 0; i < episodes; i++ {
		res, err := c.Retrain(t0, "swap pressure")
		if err != nil {
			t.Fatalf("episode %d: %v", i, err)
		}
		if !res.Promoted {
			t.Fatalf("episode %d not promoted: %+v", i, res.Shadow)
		}
	}
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed requests across %d swaps (%d ok)", n, episodes, requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("no traffic actually flowed during the swaps")
	}
	if got := srv.CacheGeneration() - gen0; got != episodes {
		t.Fatalf("cache generation advanced %d times, want %d", got, episodes)
	}
	if st := c.Status(); st.Promotions != episodes {
		t.Fatalf("controller promoted %d times, want %d", st.Promotions, episodes)
	}
}

func ioReadFull(r *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
