package machine

import (
	"encoding/json"
	"fmt"
	"os"

	"misar/internal/cpu"
)

// Machine configurations are plain data, so they round-trip through JSON —
// useful for pinning an experiment's exact parameters next to its results
// or sweeping parameters from scripts (misar-sim -config-file).

// SaveConfig writes cfg to path as indented JSON.
func SaveConfig(path string, cfg Config) error {
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("machine: marshal config: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("machine: write config: %w", err)
	}
	return nil
}

// LoadConfig reads a JSON machine configuration and validates it.
func LoadConfig(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("machine: read config: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(b, &cfg); err != nil {
		return Config{}, fmt.Errorf("machine: parse config: %w", err)
	}
	if err := Validate(cfg); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate rejects configurations the model cannot run.
func Validate(cfg Config) error {
	switch {
	case cfg.Tiles < 1 || cfg.Tiles > 1024:
		return fmt.Errorf("machine: tiles %d out of range [1,1024]", cfg.Tiles)
	case cfg.NoC.Width*cfg.NoC.Height < cfg.Tiles:
		return fmt.Errorf("machine: %dx%d mesh smaller than %d tiles",
			cfg.NoC.Width, cfg.NoC.Height, cfg.Tiles)
	case cfg.L1.Sets < 1 || cfg.L1.Ways < 1:
		return fmt.Errorf("machine: invalid L1 geometry %dx%d", cfg.L1.Sets, cfg.L1.Ways)
	case cfg.MSA.Entries == 0:
		return fmt.Errorf("machine: MSA entries must be nonzero (negative = unbounded); use CPU mode MSA-0 for no accelerator")
	case cfg.MSA.OMUCounters < 1:
		return fmt.Errorf("machine: OMU needs at least one counter")
	}
	return validateSharding(cfg)
}

// validateSharding checks the constraints of the conservative parallel
// kernel; always nil for serial configurations. Sharding partitions the
// mesh into contiguous row bands and requires every cross-shard interaction
// to carry at least one hop of latency, so features that share mutable
// state across tiles with zero latency are rejected.
func validateSharding(cfg Config) error {
	k := cfg.ShardCount()
	if k == 1 {
		if cfg.Shards < 0 {
			return fmt.Errorf("machine: negative shard count %d", cfg.Shards)
		}
		return nil
	}
	switch {
	case cfg.NoC.Height%k != 0:
		return fmt.Errorf("machine: %d shards do not divide mesh height %d into row bands",
			k, cfg.NoC.Height)
	case cfg.CPU.Mode == cpu.ModeIdeal:
		return fmt.Errorf("machine: Ideal mode uses zero-latency shared sync tables; incompatible with %d shards", k)
	case cfg.Fault.Enabled():
		return fmt.Errorf("machine: fault injection uses cross-tile delay hooks; incompatible with %d shards", k)
	}
	return nil
}
