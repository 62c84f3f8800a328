package diffcheck

import (
	"fmt"

	"algrec/internal/value"
)

// Fault selects a deliberate bug to plant in one side of an oracle pair.
// Faults exist to validate the harness itself: a differential fuzzer that
// has never caught anything proves nothing, so the tests (and cmd/fuzzdiff
// -inject) plant a fault, confirm the oracle catches it, and confirm the
// shrinker reduces the witness to a handful of atoms.
type Fault uint8

const (
	// FaultNone plants nothing; the shipped default.
	FaultNone Fault = iota
	// FaultDropMax drops the greatest element from the served side of the
	// expr-stream oracle, and from the semi-naive side of expr-seminaive,
	// whenever the result has at least two elements — the observable
	// signature of a delta-window off-by-one that loses the last round's
	// contribution.
	FaultDropMax
)

// String returns the fault's command-line name.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDropMax:
		return "drop-max"
	default:
		return "Fault(?)"
	}
}

// ParseFault parses a fault's command-line name.
func ParseFault(name string) (Fault, error) {
	switch name {
	case "", "none":
		return FaultNone, nil
	case "drop-max":
		return FaultDropMax, nil
	default:
		return FaultNone, fmt.Errorf("diffcheck: unknown fault %q (want none or drop-max)", name)
	}
}

// injected is the currently planted fault. Package-global rather than
// per-instance so the fuzz targets and the campaign driver share one switch;
// tests that plant faults must not run in parallel with each other.
var injected = FaultNone

// InjectFault plants a fault and returns a restore function, for
// defer-friendly use in tests.
func InjectFault(f Fault) (restore func()) {
	prev := injected
	injected = f
	return func() { injected = prev }
}

// CurrentFault returns the currently planted fault.
func CurrentFault() Fault { return injected }

// applyDropMax corrupts a set per FaultDropMax when that fault is planted.
func applyDropMax(s value.Set) value.Set {
	if injected != FaultDropMax || s.Len() < 2 {
		return s
	}
	elems := s.Elems()
	return value.NewSet(elems[:len(elems)-1]...)
}
