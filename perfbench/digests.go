package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"webmm/internal/experiments"
)

// digests.json pins every cell result of every workload at defaultSeed:
// workload → cell key → digest. Regenerate an entry with
//
//	perfbench --workload <name> --record-digests
//
// only when a change is meant to move simulation results.
//
//go:embed digests.json
var digestsJSON []byte

var pinnedDigests = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return m
}()

// recordDigests simulates the workload's cells once, directly through a
// Runner, and prints their digests as a digests.json entry.
func recordDigests(name string, o options) error {
	var cfg experiments.Config
	var plan []experiments.Cell
	switch name {
	case "serve_fleet":
		cfg, plan = fleetConfig(o.seed), fleetCells()
	default:
		w := simWorkloads[name]
		cfg = w.config(o.seed)
		plan = w.plan(experiments.NewRunner(cfg))
	}
	out := map[string]string{}
	for _, cr := range experiments.NewRunner(cfg).RunAll(plan, 0) {
		if cr.Failed {
			return fmt.Errorf("cell %s failed", cr.Cell.Key())
		}
		out[cr.Cell.Key()] = digest(cr)
	}
	b, err := json.MarshalIndent(map[string]any{name: out}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
