// Package metrics provides lightweight counters, histograms, and tabular
// formatting shared by the simulator subsystems, the benchmark harness,
// and the command-line tools.
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. Increments are
// atomic, so counters shared between the CPU contexts of a
// host-parallel simulation phase stay exact: a counter's value is an
// order-independent sum, which keeps totals deterministic even when
// the incrementing goroutines race.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Set is a named collection of counters, used by subsystems to expose
// their event counts (faults, TLB misses, buddy splits, ...).
//
// Lookup/creation is mutex-protected so hot paths running on parallel
// CPU contexts can share a set; note that first-use *order* is only
// deterministic for counters created before a parallel phase starts,
// which is why subsystem constructors pre-create the counters their
// hot paths touch.
type Set struct {
	mu       sync.Mutex
	order    []string
	counters map[string]*Counter
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{counters: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it on first
// use. Names are reported in first-use order.
func (s *Set) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{}
	s.counters[name] = c
	s.order = append(s.order, name)
	return c
}

// Lazy caches one counter of a Set, looked up by name on its first
// use, for paths that run once per operation and would otherwise pay
// Set.Counter's map lookup and mutex on every call. Resolving on first
// use rather than in a constructor keeps the set's first-use order
// what it was without the cache; that order reaches captured machine
// state. The cached pointer is atomic, so CPUs of a host-parallel
// phase may share a Lazy.
type Lazy struct {
	c atomic.Pointer[Counter]
}

// Of returns the counter called name in s, looking it up on the first
// call only. Every call on one Lazy must pass the same s and name.
func (l *Lazy) Of(s *Set, name string) *Counter {
	if c := l.c.Load(); c != nil {
		return c
	}
	c := s.Counter(name)
	l.c.Store(c)
	return c
}

// Value returns the value of the named counter, or zero if it has never
// been created.
func (s *Set) Value(name string) uint64 {
	s.mu.Lock()
	c, ok := s.counters[name]
	s.mu.Unlock()
	if ok {
		return c.Value()
	}
	return 0
}

// Names returns counter names in first-use order.
func (s *Set) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Reset zeroes every counter in the set.
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.counters {
		c.Reset()
	}
}

// String renders the set as "name=value" pairs.
func (s *Set) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for i, name := range s.order {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", name, s.counters[name].Value())
	}
	return b.String()
}

// Table is a simple fixed-column text table used to print experiment
// results in the same row/series layout as the paper's figures.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
