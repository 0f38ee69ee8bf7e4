// Package a declares the exported names the testonly fixture checks.
package a

func Unused() {} // want `func Unused has no non-test use`

type Lonely struct{} // want `type Lonely has no non-test use`

const Limit = 8 // want `const Limit has no non-test use`

var Default = 3 // want `var Default has no non-test use`

// T is used by package user, but not its method Dead.
type T struct{}

func (T) Dead() {} // want `method T.Dead has no non-test use`

// String is called through fmt.Stringer, which no code here names.
func (T) String() string { return "T" }

// Rec calls only itself: a use inside its own declaration does not count.
func Rec(n int) int { // want `func Rec has no non-test use`
	if n == 0 {
		return 0
	}
	return Rec(n - 1)
}

// UsedElsewhere is called from package user.
func UsedElsewhere() {}

// UsedByBench is called only from the extra root.
func UsedByBench() {}

// Tree is generic; user calls Get only through Tree[int].
type Tree[V any] struct{ v V }

func (t *Tree[V]) Get() V { return t.v }

func (t *Tree[V]) Put(v V) { t.v = v } // want `method Tree.Put has no non-test use`

// Shape is an interface user refers to; Sq satisfies it, so Area is
// called through it though nobody names Sq.Area.
type Shape interface{ Area() int }

type Sq struct{ N int }

func (s Sq) Area() int { return s.N * s.N }

// Perimeter is on Sq but in no interface.
func (s Sq) Perimeter() int { return 4 * s.N } // want `method Sq.Perimeter has no non-test use`

//tendax:allow-testonly the oracle the package's tests compare against
func Oracle() {}

//tendax:allow-testonly
func NoReason() {} // want `tendax:allow-testonly needs a reason`

// Chained is called only by Via, which only tests call: a use from a name
// no program reaches does not count.
func Chained() {} // want `func Chained has no non-test use`

func Via() { Chained() } // want `func Via has no non-test use`

// Hidden is called only by an unexported function nobody calls.
func Hidden() {} // want `func Hidden has no non-test use`

func hidden() { Hidden() }

// Reached is called by an unexported helper that Entry, which package
// user calls, calls.
func Reached() {}

func helper() { Reached() }

func Entry() { helper() }

// FromVar is referenced by a package-level initializer, which runs.
func FromVar() {}

var table = map[string]func(){"x": FromVar}

// ForOracle is called only by an allowed name.
func ForOracle() {}

//tendax:allow-testonly the oracle the package's tests compare against
func Oracle2() { ForOracle() }
