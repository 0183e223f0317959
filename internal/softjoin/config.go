package softjoin

import (
	"fmt"

	"accelstream/internal/stream"
)

// Config parameterizes a software join engine.
type Config struct {
	// NumCores is the number of join-core goroutines.
	NumCores int
	// WindowSize is the total per-stream window. It need not divide evenly
	// across the cores; each core rounds its sub-window up.
	WindowSize int
	// Condition is the join condition. Defaults to the equi-join on key.
	Condition stream.JoinCondition
	// BatchSize is the number of tuples per distribution batch. SplitJoin
	// distributes in chunks to amortize hand-off costs. Defaults to 64.
	BatchSize int
	// ChannelDepth is the buffering (in batches) of the distribution and
	// gathering channels. Defaults to 4.
	ChannelDepth int
	// OrderedResults enables SplitJoin's punctuated ordering: results are
	// released in the arrival order of the tuples that produced them,
	// gated by the slowest core's progress. The default (relaxed) mode
	// forwards results as soon as any core produces them.
	OrderedResults bool
	// ShardCount and ShardIndex place this engine in a sharded SplitJoin
	// deployment (uni-flow only): every tuple still probes this engine's
	// windows, but only tuples whose per-side arrival index is
	// ≡ ShardIndex (mod ShardCount) are stored, spread round-robin over
	// the engine's cores. With the streams broadcast to ShardCount such
	// engines (one per residue class, each holding global-window/ShardCount
	// tuples per side), the union of their results equals an unsharded
	// join over the global window. ShardCount 0 or 1 means unsharded.
	ShardCount int
	ShardIndex int
	// BaseSeqR and BaseSeqS start the per-side arrival counters (sequence
	// numbers and store turns) at an offset; a shard router uses this to
	// resume the global arrival count when it re-opens a failed shard's
	// session mid-stream.
	BaseSeqR uint64
	BaseSeqS uint64
	// ProbeKernel selects the window-probe kernel the join cores run.
	// KernelAuto (the zero value) resolves per condition: the hash-index
	// kernel for the equi-join on key, the block-scan kernel otherwise.
	// KernelHash may only be forced together with the equi-join condition.
	ProbeKernel stream.ProbeKernel
}

func (cfg *Config) applyDefaults() {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.ChannelDepth == 0 {
		cfg.ChannelDepth = 4
	}
	if cfg.Condition == (stream.JoinCondition{}) {
		cfg.Condition = stream.EquiJoinOnKey()
	}
	if cfg.ShardCount == 0 {
		cfg.ShardCount = 1
	}
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if cfg.NumCores <= 0 {
		return fmt.Errorf("softjoin: NumCores must be positive, got %d", cfg.NumCores)
	}
	if cfg.WindowSize <= 0 {
		return fmt.Errorf("softjoin: WindowSize must be positive, got %d", cfg.WindowSize)
	}
	if cfg.BatchSize < 0 || cfg.ChannelDepth < 0 {
		return fmt.Errorf("softjoin: BatchSize and ChannelDepth must be non-negative")
	}
	if cfg.ShardCount < 0 {
		return fmt.Errorf("softjoin: ShardCount must be non-negative, got %d", cfg.ShardCount)
	}
	if cfg.ShardCount > 1 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount) {
		return fmt.Errorf("softjoin: ShardIndex %d out of range [0,%d)", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.ShardCount <= 1 && cfg.ShardIndex != 0 {
		return fmt.Errorf("softjoin: ShardIndex %d without a ShardCount", cfg.ShardIndex)
	}
	if !cfg.ProbeKernel.Valid() {
		return fmt.Errorf("softjoin: unknown probe kernel code %d", cfg.ProbeKernel)
	}
	if cfg.ProbeKernel == stream.KernelHash && cfg.Condition != stream.EquiJoinOnKey() {
		return fmt.Errorf("softjoin: the hash probe kernel handles only the equi-join on key, not %v", cfg.Condition)
	}
	return cfg.Condition.Validate()
}

// resolveKernel maps KernelAuto to the concrete kernel for the condition:
// the hash index can only answer the equi-join on key, the block scan
// answers anything.
func (cfg Config) resolveKernel() stream.ProbeKernel {
	if cfg.ProbeKernel != stream.KernelAuto {
		return cfg.ProbeKernel
	}
	if cfg.Condition == stream.EquiJoinOnKey() {
		return stream.KernelHash
	}
	return stream.KernelScan
}

// sharded reports whether the configuration assigns a shard role.
func (cfg Config) sharded() bool { return cfg.ShardCount > 1 }

// subWindowSize is the per-core sub-window. Unlike the hardware designs
// (whose BRAMs are provisioned in equal sub-windows), the software engine
// accepts windows that do not divide evenly: each core rounds its share up,
// so the effective total window is NumCores·⌈W/N⌉ ≥ W.
func (cfg Config) subWindowSize() int {
	return (cfg.WindowSize + cfg.NumCores - 1) / cfg.NumCores
}
