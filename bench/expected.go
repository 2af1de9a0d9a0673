package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"misar/internal/harness"
	"misar/internal/machine"
	"misar/internal/workload"
)

// expectedPath holds the pinned simulated outputs every run is checked
// against, relative to the repository root.
const expectedPath = "bench/testdata/expected.json"

// expected is the content of testdata/expected.json.
type expected struct {
	Note          string                  `json:"note"`
	FigsToySHA256 string                  `json:"figs_toy_sha256"`
	Scale         map[string]scaleOutcome `json:"scale"`
	Cycles        map[string]uint64       `json:"cycles"`
	// Excluded lists jobs that fail deterministically, with their error;
	// the key sets skip them instead of counting them as failures.
	Excluded map[string]string `json:"excluded"`
}

func loadExpected(root string) (*expected, error) {
	b, err := os.ReadFile(filepath.Join(root, expectedPath))
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return &e, nil
}

// regenerate recomputes every pinned output from the code as it is and
// rewrites testdata/expected.json. Job cycles come straight from a Runner,
// which is what the server runs for each request.
func regenerate(root string) error {
	e := expected{
		Note:     "Pinned simulated outputs checked by the benchmark. Regenerate with: bash bench/run.sh -regen",
		Scale:    map[string]scaleOutcome{},
		Cycles:   map[string]uint64{},
		Excluded: map[string]string{},
	}
	toy, _, err := renderFigs(figsOptions(true), nil)
	if err != nil {
		return err
	}
	e.FigsToySHA256 = sha256Hex(toy)
	for _, tiles := range []int{scaleToyTiles, scaleSetupTiles, scaleTiles} {
		for _, shards := range []int{1, 2} {
			out, err := scaleRun(tiles, shards, nil)
			if err != nil {
				return fmt.Errorf("scale %s: %w", scaleKey(tiles, shards), err)
			}
			e.Scale[scaleKey(tiles, shards)] = out
		}
	}
	keys := jobsOf(append(append(toyExperiments(), coldExperiments()...), hitExperiments()...))
	r := harness.NewRunner(2)
	runs := make([]*harness.Run, len(keys))
	for i, k := range keys {
		cfg, lib, err := harness.Variant(k.Config, k.Tiles)
		if err != nil {
			return err
		}
		app, ok := workload.ByName(k.App)
		if !ok {
			return fmt.Errorf("unknown app %q", k.App)
		}
		if err := machine.Validate(cfg); err != nil {
			e.Excluded[k.String()] = err.Error() // the server refuses it
			continue
		}
		runs[i] = r.AppCtx(context.Background(), app, cfg, lib())
	}
	for i, k := range keys {
		if runs[i] == nil {
			continue
		}
		res, err := runs[i].Result()
		if err != nil {
			e.Excluded[k.String()] = err.Error()
			continue
		}
		e.Cycles[k.String()] = res.Cycles
	}
	fmt.Printf("regenerated %d job cycles (%d excluded), %d scale points\n", len(e.Cycles), len(e.Excluded), len(e.Scale))
	return writeJSON(filepath.Join(root, expectedPath), e)
}
