package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"misar/internal/harness"
	"misar/internal/stats"
)

// figsGolden is the harness's own pinned rendering of Fig. 5-9 at 16+64
// tiles over the four golden apps; the benchmark only reads it.
const figsGolden = "internal/harness/testdata/golden_figs_16_64c.txt"

func figsOptions(toy bool) harness.Options {
	if toy {
		return harness.Options{Tiles: []int{8}, Apps: []string{"fluidanimate"}}
	}
	return harness.Options{
		Tiles: []int{16, 64},
		Apps:  []string{"radiosity", "ocean-nc", "fluidanimate", "streamcluster"},
	}
}

// renderFigs renders Fig. 5-9 in figure order through one fresh two-worker
// Runner without a store, as misar-fig does.
func renderFigs(o harness.Options, lay *layers) ([]byte, *harness.Runner, error) {
	r := harness.NewRunner(2)
	if lay != nil {
		r.EnableMetrics()
	}
	var buf bytes.Buffer
	for i, fig := range []func(harness.Options) (*stats.Table, error){r.Fig5, r.Fig6, r.Fig7, r.Fig8, r.Fig9} {
		sp := lay.start("harness", fmt.Sprintf("fig%d", i+5))
		t, err := fig(o)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		t.Render(&buf)
	}
	return buf.Bytes(), r, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runFigs: set-up reads the golden and renders the figures once at toy size
// (8 tiles, one app) as a warm-up; each op renders the full sweep and must
// reproduce the golden byte for byte.
func runFigs(r *run) error {
	golden, err := setup(r, func() ([]byte, error) {
		g, err := os.ReadFile(filepath.Join(r.root, figsGolden))
		if err != nil {
			return nil, err
		}
		toy, _, err := renderFigs(figsOptions(true), nil)
		if err != nil {
			return nil, err
		}
		r.check(sha256Hex(toy) == r.exp.FigsToySHA256, "figs: toy rendering hash %s, want %s", sha256Hex(toy), r.exp.FigsToySHA256)
		return g, nil
	}, func([]byte) {})
	if err != nil {
		return err
	}
	o := figsOptions(r.toy)
	deadline := time.Now().Add(r.window)
	return r.serialLoop(deadline, func(int) error {
		sp := r.lay.start("bench", "figs.sweep")
		got, runner, err := renderFigs(o, r.lay)
		sp.end()
		if err != nil {
			return err
		}
		if r.toy {
			r.check(sha256Hex(got) == r.exp.FigsToySHA256, "figs: toy rendering diverged")
		} else {
			r.check(bytes.Equal(got, golden), "figs: rendering diverged from %s", figsGolden)
		}
		r.lay.addRunner(runner, sp.dur())
		return nil
	})
}
