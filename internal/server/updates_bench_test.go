package server_test

// Sustained update-rate benchmark: how many small edge batches per
// second the serving layer folds into a dataset's overlay while
// concurrently answering read queries — published in BENCH_updates.json.
// Three shapes: the bare update path, updates racing readers, and
// updates racing readers with cost-model auto-compaction folding the
// overlay whenever its predicted traversal overhead crosses the band.

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sage"
	"sage/internal/server"
)

// benchServer serves one 256-vertex chain as "chain" without the network
// in the way (requests go straight into ServeHTTP).
func benchServer(b *testing.B, cfg server.Config) *server.Server {
	b.Helper()
	path := filepath.Join(b.TempDir(), "chain.sg")
	if err := sage.Create(path, sage.GenerateChain(256)); err != nil {
		b.Fatal(err)
	}
	s := server.New(cfg)
	if err := s.AddDataset("chain", path); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	return s
}

func benchPost(s *server.Server, url, body string) int {
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code
}

func BenchmarkSustainedUpdates(b *testing.B) {
	cases := []struct {
		name    string
		cfg     server.Config
		readers int
	}{
		{"bare", server.Config{ResultCacheEntries: -1}, 0},
		{"readers2", server.Config{ResultCacheEntries: -1}, 2},
		{"readers2/autocompact", server.Config{ResultCacheEntries: -1, AutoCompactCost: 1 << 13}, 2},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			s := benchServer(b, bc.cfg)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < bc.readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							benchPost(s, "/v1/run/chain/bfs", `{"src": 0}`)
						}
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Distinct chords keep every batch a real overlay mutation;
				// cycling the target bounds the overlay (re-inserting an
				// edge already present is a recorded, deduplicated arc).
				body := fmt.Sprintf(`{"ops": [{"u": %d, "v": %d}]}`, i%128, 128+i%127)
				if code := benchPost(s, "/v1/update/chain", body); code != 200 {
					b.Fatalf("update %d: status %d", i, code)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
		})
	}
}

// BenchmarkSustainedUpdatesMultiWriter measures the durable write path
// under concurrent writers to ONE dataset: the WAL is on with the
// always-fsync policy, so every acknowledged batch pays for reaching
// stable storage. This is the shape group commit exists for — W writers
// whose fsyncs coalesce into one leader flush per window instead of W
// serialized flushes — published to BENCH_updates.json alongside the
// WAL-off cases above.
func BenchmarkSustainedUpdatesMultiWriter(b *testing.B) {
	for _, writers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("writers%d", writers), func(b *testing.B) {
			s := benchServer(b, server.Config{
				ResultCacheEntries: -1,
				Durability:         server.Durability{Enabled: true},
			})
			// Each iteration is a guaranteed real overlay mutation (never a
			// no-op the server could skip logging): iteration n targets
			// chord c of the 128x126 non-adjacent (u, v) pairs, inserting
			// it on even passes over the chord space and deleting it on odd
			// ones. Writers share the iteration counter, so no two touch
			// the same chord in the same pass.
			var next atomic.Int64
			var failed atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := next.Add(1) - 1
						if n >= int64(b.N) {
							return
						}
						const chords = 128 * 126
						c, pass := n%chords, (n/chords)%2
						body := fmt.Sprintf(`{"ops": [{"u": %d, "v": %d, "del": %v}]}`,
							c/126, 129+c%126, pass == 1)
						if code := benchPost(s, "/v1/update/chain", body); code != 200 {
							failed.Add(1)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if n := failed.Load(); n > 0 {
				b.Fatalf("%d writers failed", n)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
		})
	}
}
