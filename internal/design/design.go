// Package design models the configuration design space the wind tunnel
// sweeps: typed dimensions (cluster size, replication factor, NIC speed,
// placement policy, ...), cartesian enumeration, and the monotone
// dominance order that §4.2 of the paper uses to skip simulation runs:
// "if a performance SLA cannot be met with a 10Gb network, then it won't
// be met with a 1Gb network, while all other design parameters remain the
// same. Thus, the simulation run with the 10Gb configuration should
// precede the run with the 1Gb configuration."
package design

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is one setting of a dimension: a string, bool, int or float64.
type Value any

// FormatValue renders a value canonically.
func FormatValue(v Value) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64) // what %g prints
	case int:
		return strconv.Itoa(x)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Dimension is one axis of the design space. When Monotone is true the
// Values MUST be ordered worst-to-best with respect to SLA satisfaction
// (e.g. NIC speeds 1G, 10G, 40G): failing at a value then implies failing
// at every earlier value, all else equal.
type Dimension struct {
	Name     string
	Values   []Value
	Monotone bool
}

// Validate checks the dimension.
func (d Dimension) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("design: dimension with empty name")
	}
	if len(d.Values) == 0 {
		return fmt.Errorf("design: dimension %q has no values", d.Name)
	}
	seen := make(map[string]bool, len(d.Values))
	for _, v := range d.Values {
		k := FormatValue(v)
		if seen[k] {
			return fmt.Errorf("design: dimension %q has duplicate value %s", d.Name, k)
		}
		seen[k] = true
	}
	return nil
}

// Space is a cartesian product of dimensions.
type Space struct {
	dims  []Dimension
	index map[string]int
	// labels[i][j] is "name=value" for dimension i's j-th value, formatted
	// once: a point's Key is made of them.
	labels [][]string
}

// NewSpace validates and constructs a space. A space with no dimensions
// is the one-point space: its only point assigns nothing, and its Key is "".
func NewSpace(dims ...Dimension) (*Space, error) {
	s := &Space{dims: dims, index: make(map[string]int, len(dims))}
	for i, d := range dims {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.index[d.Name]; dup {
			return nil, fmt.Errorf("design: duplicate dimension %q", d.Name)
		}
		s.index[d.Name] = i
		labels := make([]string, len(d.Values))
		for j, v := range d.Values {
			labels[j] = d.Name + "=" + FormatValue(v)
		}
		s.labels = append(s.labels, labels)
	}
	return s, nil
}

// Size returns the number of points.
func (s *Space) Size() int {
	n := 1
	for _, d := range s.dims {
		n *= len(d.Values)
	}
	return n
}

// Point is one configuration: an index into each dimension's values.
type Point struct {
	space *Space
	idx   []int
}

// Value returns the point's setting for dimension name.
func (p Point) Value(name string) (Value, error) {
	i, ok := p.space.index[name]
	if !ok {
		return nil, fmt.Errorf("design: unknown dimension %q", name)
	}
	return p.space.dims[i].Values[p.idx[i]], nil
}

// MustValue is Value for known-good dimension names.
func (p Point) MustValue(name string) Value {
	v, err := p.Value(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Len is the number of dimensions the point assigns.
func (p Point) Len() int { return len(p.idx) }

// At returns the i-th dimension's name and the point's value for it, in
// the space's declaration order: the allocation-free, deterministically
// ordered way to walk a point.
func (p Point) At(i int) (string, Value) {
	d := p.space.dims[i]
	return d.Name, d.Values[p.idx[i]]
}

// Assignments returns the point as a name->value map.
func (p Point) Assignments() map[string]Value {
	out := make(map[string]Value, len(p.idx))
	for i, d := range p.space.dims {
		out[d.Name] = d.Values[p.idx[i]]
	}
	return out
}

// Key returns a canonical string identity ("dim=value,..." sorted by
// dimension name), used for result stores and deduplication.
func (p Point) Key() string {
	parts := make([]string, len(p.idx))
	for i, j := range p.idx {
		parts[i] = p.space.labels[i][j]
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (p Point) String() string { return p.Key() }

// clone copies the index vector.
func (p Point) clone() Point {
	idx := make([]int, len(p.idx))
	copy(idx, p.idx)
	return Point{space: p.space, idx: idx}
}

// Points enumerates the whole space in §4.2 execution order: monotone
// dimensions iterate best-first (descending index) so that failures are
// discovered at the strongest configurations first, maximizing later
// pruning; categorical dimensions iterate in declaration order.
func (s *Space) Points() []Point {
	var out []Point
	idx := make([]int, len(s.dims))
	// Start each monotone dimension at its best value.
	for i, d := range s.dims {
		if d.Monotone {
			idx[i] = len(d.Values) - 1
		}
	}
	for {
		cur := Point{space: s, idx: idx}
		out = append(out, cur.clone())
		// Odometer increment (last dimension fastest).
		i := len(s.dims) - 1
		for ; i >= 0; i-- {
			d := s.dims[i]
			if d.Monotone {
				idx[i]--
				if idx[i] >= 0 {
					break
				}
				idx[i] = len(d.Values) - 1
			} else {
				idx[i]++
				if idx[i] < len(d.Values) {
					break
				}
				idx[i] = 0
			}
		}
		if i < 0 {
			return out
		}
	}
}

// Pruner implements the §4.2 dominance skip: once a point fails its SLA,
// every point that is equal on all categorical dimensions and
// worse-or-equal on every monotone dimension is guaranteed to fail too
// and need not be simulated.
type Pruner struct {
	space  *Space
	failed []Point
}

// NewPruner creates a pruner for s.
func NewPruner(s *Space) *Pruner { return &Pruner{space: s} }

// RecordFailure marks p as having failed its constraint.
func (pr *Pruner) RecordFailure(p Point) {
	pr.failed = append(pr.failed, p.clone())
}

// Dominated reports whether q is guaranteed to fail given the recorded
// failures.
func (pr *Pruner) Dominated(q Point) bool {
	for _, f := range pr.failed {
		if dominatedBy(q, f) {
			return true
		}
	}
	return false
}

// dominatedBy reports whether q is worse-or-equal than the failed point f:
// equal on categorical dimensions, index <= on monotone dimensions.
func dominatedBy(q, f Point) bool {
	for i, d := range q.space.dims {
		if d.Monotone {
			if q.idx[i] > f.idx[i] {
				return false
			}
		} else if q.idx[i] != f.idx[i] {
			return false
		}
	}
	return true
}
