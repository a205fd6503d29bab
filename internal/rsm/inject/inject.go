// Package inject is a compatibility shim: the live arm's attack process is
// ituadirect.Process, stepped with lifecycle hooks (see internal/rsm). This
// package only aliases those names, and is kept because the benchmark
// harness (perfbench) replays the injector through inject.New and
// inject.Hooks.
package inject

import (
	"ituaval/internal/core"
	"ituaval/internal/ituadirect"
	"ituaval/internal/rng"
)

type (
	// Process is ituadirect.Process.
	Process = ituadirect.Process
	// Hooks is ituadirect.Hooks.
	Hooks = ituadirect.Hooks
	// Member is ituadirect.Member.
	Member = ituadirect.Member
)

// New is ituadirect.NewProcess with the given hooks and no other options.
func New(p core.Params, rs *rng.Stream, h Hooks) (*Process, error) {
	return ituadirect.NewProcess(p, rs, ituadirect.Opts{Hooks: h})
}
