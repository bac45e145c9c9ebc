package main

import (
	"slices"
	"testing"
)

// allFlags is every flag main defines.
var allFlags = []string{
	"listen", "partitions", "buckets", "cache-mb", "snapshot-dir", "snapshot-every",
	"hotcalls", "insecure", "seed", "vlog-dir", "spill-threshold", "mem-budget-mb",
	"role", "replica-addr", "epoch",
}

// TestIgnoredFlagsMatrix sets each flag alone under each role: exactly the
// flags the role never reads are refused.
func TestIgnoredFlagsMatrix(t *testing.T) {
	ignored := map[string][]string{
		"standalone": {"replica-addr", "epoch"},
		"primary":    {"snapshot-dir", "snapshot-every", "vlog-dir", "spill-threshold", "mem-budget-mb"},
		"replica":    {"replica-addr", "snapshot-every", "vlog-dir", "spill-threshold", "mem-budget-mb"},
	}
	for role, want := range ignored {
		for _, name := range allFlags {
			got := ignoredFlags(role, []string{name})
			if slices.Contains(want, name) {
				if !slices.Equal(got, []string{name}) {
					t.Errorf("-role %s -%s: ignoredFlags = %v, want it refused", role, name, got)
				}
			} else if len(got) != 0 {
				t.Errorf("-role %s -%s: ignoredFlags = %v, want it accepted", role, name, got)
			}
		}
	}
}

// TestIgnoredFlagsDeployments checks the flag sets real deployments pass
// (the benchmark's standalone, spill and replication pair) start, and that
// a mixed set reports every ignored flag in command-line order.
func TestIgnoredFlagsDeployments(t *testing.T) {
	accepted := map[string][]string{
		"standalone": {"partitions", "buckets", "seed", "vlog-dir", "mem-budget-mb", "cache-mb", "snapshot-dir", "snapshot-every"},
		"replica":    {"partitions", "buckets", "seed", "role", "snapshot-dir", "epoch", "listen"},
		"primary":    {"partitions", "buckets", "seed", "role", "replica-addr", "epoch", "cache-mb"},
	}
	for role, set := range accepted {
		if bad := ignoredFlags(role, set); len(bad) != 0 {
			t.Errorf("-role %s refuses %v", role, bad)
		}
	}
	set := []string{"role", "mem-budget-mb", "replica-addr", "vlog-dir", "snapshot-dir"}
	if got, want := ignoredFlags("primary", set), []string{"mem-budget-mb", "vlog-dir", "snapshot-dir"}; !slices.Equal(got, want) {
		t.Errorf("primary: ignoredFlags = %v, want %v", got, want)
	}
	if got := ignoredFlags("bogus", set); len(got) != 0 {
		t.Errorf("unknown role reports %v; main rejects the role itself", got)
	}
}
