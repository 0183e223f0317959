// Package accelstream is a from-scratch reproduction of "Hardware
// Acceleration Landscape for Distributed Real-time Analytics: Virtues and
// Limitations" (Najafi, Zhang, Jacobsen, Sadoghi — ICDCS 2017).
//
// It provides, behind one public API:
//
//   - the paper's case study — flow-based parallel stream joins — in four
//     runnable forms: uni-flow (SplitJoin) and bi-flow (handshake join /
//     OP-Chain), each as a cycle-level simulated FPGA design and as a real
//     multicore software engine;
//   - a synthesis model of the paper's two FPGA platforms (Virtex-5
//     XC5VLX50T and Virtex-7 XC7VX485T): resources, feasibility, maximum
//     clock frequency, and power;
//   - the Flexible Query Processor fabric (online-programmable blocks,
//     runtime query assignment, no-halt reconfiguration) with a small SQL
//     front end offering both the static (Glacier-style) and dynamic
//     (FQP-style) compiler paths;
//   - the Section II design-landscape taxonomy and an active-data-path
//     placement model;
//   - experiment runners regenerating every figure and table of the paper's
//     evaluation (see RunExperiment and EXPERIMENTS.md).
//
// The hardware results come from simulation and calibrated models, not
// silicon; DESIGN.md documents every substitution.
package accelstream

import (
	"accelstream/internal/buildinfo"
	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// Version returns the one-line build-identity banner for a daemon's
// -version flag: release, embedded VCS revision, and toolchain. The same
// identity is exported on /metrics as streamd_build_info.
func Version(daemon string) string { return buildinfo.Print(daemon) }

// Tuple is a 64-bit stream tuple: a 32-bit join key and a 32-bit payload.
type Tuple = stream.Tuple

// Side identifies which input stream a tuple belongs to.
type Side = stream.Side

// Stream sides.
const (
	SideR = stream.SideR
	SideS = stream.SideS
)

// Result is one join result: an R tuple paired with an S tuple.
type Result = stream.Result

// ResultBatch is a pooled batch of join results, the unit the service
// moves between its stages (engine, session, shard router). Receivers of
// a Batches() channel own each batch and must call its Release.
type ResultBatch = stream.ResultBatch

// Input is one tuple arrival (a tuple tagged with its stream).
type Input = core.Input

// Comparator is a comparison operator usable in join and selection
// conditions.
type Comparator = stream.Comparator

// Comparison operators.
const (
	CmpEQ = stream.CmpEQ
	CmpNE = stream.CmpNE
	CmpLT = stream.CmpLT
	CmpLE = stream.CmpLE
	CmpGT = stream.CmpGT
	CmpGE = stream.CmpGE
)

// Field addresses one half of the 64-bit tuple.
type Field = stream.Field

// Tuple fields.
const (
	FieldKey = stream.FieldKey
	FieldVal = stream.FieldVal
)

// JoinCondition compares a probing tuple against a window-resident tuple.
type JoinCondition = stream.JoinCondition

// EquiJoinOnKey is the equi-join on the 32-bit key used throughout the
// paper's evaluation.
func EquiJoinOnKey() JoinCondition { return stream.EquiJoinOnKey() }

// ProbeKernel selects the window-probe kernel of a software uni-flow
// engine: the per-core incremental hash index (equi-joins, O(matches) per
// probe) or the block-scan sweep over the window's packed word column
// (any condition) — the software analogues of a GPU hash probe and a SIMD
// lane sweep.
type ProbeKernel = stream.ProbeKernel

// Probe kernels.
const (
	// KernelAuto resolves per join condition: hash for the equi-join on
	// key, scan otherwise.
	KernelAuto = stream.KernelAuto
	// KernelHash forces the incremental hash index (equi-join only).
	KernelHash = stream.KernelHash
	// KernelScan forces the 64-wide bitmask block scan.
	KernelScan = stream.KernelScan
)

// ParseProbeKernel maps a flag value ("auto", "hash", "scan") to a probe
// kernel; the empty string parses as KernelAuto.
func ParseProbeKernel(name string) (ProbeKernel, error) { return stream.ParseProbeKernel(name) }

// FlowModel selects between the paper's two parallel join architectures.
type FlowModel = core.FlowModel

// The two flow models of the case study.
const (
	// BiFlow is the bi-directional model (handshake join / OP-Chain).
	BiFlow = core.BiFlow
	// UniFlow is the uni-directional top-down model (SplitJoin).
	UniFlow = core.UniFlow
)

// Oracle is the reference sequential sliding-window join; every engine in
// this module produces exactly its result multiset for the same arrival
// order (uni-flow strictly; bi-flow under its relaxed handshake semantics).
type Oracle = core.Oracle

// NewOracle builds a reference join with a per-stream window of w tuples.
func NewOracle(w int, cond JoinCondition) (*Oracle, error) {
	return core.NewOracle(w, cond)
}

// VerifyExactlyOnce checks an engine's output against the oracle: every
// incoming tuple compared exactly once with every window-resident tuple of
// the other stream.
func VerifyExactlyOnce(w int, cond JoinCondition, inputs []Input, results []Result) error {
	return core.VerifyExactlyOnce(w, cond, inputs, results)
}
