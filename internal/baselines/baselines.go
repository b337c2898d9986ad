// Package baselines reimplements, from their published algorithms, the
// competitor hash tables the paper benchmarks against (§8.1), plus two
// idiomatic-Go general-purpose maps. The originals are C/C++ libraries
// that cannot be linked from an offline pure-Go module, so each stand-in
// reproduces the *algorithm class* — fine-grained locking vs. open
// addressing vs. chaining vs. RCU-style ordered lists — which is what the
// paper's comparison measures (README's table of variants and
// `growbench -exp table1` give the mapping).
//
// Every table implements tables.Interface and registers itself in the
// capability registry, so the conformance suite and the benchmark harness
// drive all of them uniformly.
package baselines

import "repro/internal/tables"

// selfHandle adapts a table whose methods are already safe for direct
// concurrent use (no per-goroutine state) to the handle-based interface.
type selfHandle struct{ tables.Handle }

// direct wraps h so that Handle() can return the table itself.
func direct(h tables.Handle) tables.Handle { return selfHandle{h} }
