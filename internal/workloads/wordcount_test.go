package workloads

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// wcCorpusReference is the original whole-corpus generator: every noise
// byte from rng.Intn(20), the plants from the same rng. The streaming
// generator must reproduce its bytes exactly.
func wcCorpusReference(cfg WordcountConfig) ([][]byte, []int64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	words := wcWords(cfg.Words)
	counts := make([]int64, cfg.Words)
	files := make([][]byte, cfg.Files)
	const cell = 64 << 10
	for f := range files {
		data := make([]byte, cfg.FileBytes)
		for i := range data {
			data[i] = byte('a' + rng.Intn(20))
		}
		plants := int(cfg.FileBytes / (16 << 10))
		cells := cfg.FileBytes / cell
		for i := 0; i < plants; i++ {
			w := rng.Intn(cfg.Words)
			off := rng.Int63n(cells)*cell + 16 + rng.Int63n(cell-128)
			copy(data[off:], words[w])
		}
		files[f] = data
		countChunk(data, words, counts)
	}
	return files, counts
}

func TestWordcountCorpusMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 1000} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			cfg := DefaultWordcountConfig(WordcountGENESYS)
			cfg.Files = 12
			cfg.Seed = seed
			m := newM(t, 1)
			if _, err := m.SSDFS.Mount(m.VFS, "/data/corpus"); err != nil {
				t.Fatal(err)
			}
			counts, err := wcWriteCorpus(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			files, want := wcCorpusReference(cfg)
			if fmt.Sprint(counts) != fmt.Sprint(want) {
				t.Fatalf("counts = %v, want %v", counts, want)
			}
			for i, ref := range files {
				got, err := m.ReadFile(wcFileName(i))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("%s differs from the reference generator", wcFileName(i))
				}
			}
		})
	}
}
