package registry

import (
	"reflect"
	"testing"
)

// TestRegistry pins the table's contract: sorted Names and Infos, the
// unknown-name error naming every entry under the package's prefix and
// noun, and a panic on a duplicate name that leaves the first entry.
func TestRegistry(t *testing.T) {
	r := New[func() int]("policy", "policy")
	r.Register("b", "second", func() int { return 2 })
	r.Register("a", "first", func() int { return 1 })

	if got, want := r.Names(), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names %v, want %v", got, want)
	}
	if got, want := r.Infos(), []Info{{"a", "first"}, {"b", "second"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Infos %v, want %v", got, want)
	}
	if f, err := r.Lookup("b"); err != nil || f() != 2 {
		t.Fatalf("Lookup(b): err %v", err)
	}
	const want = `policy: unknown policy "c" (registered: [a b])`
	if _, err := r.Lookup("c"); err == nil || err.Error() != want {
		t.Fatalf("Lookup(c): %v, want %q", err, want)
	}

	func() {
		defer func() {
			const want = `policy: duplicate registration of "a"`
			if v := recover(); v != want {
				t.Fatalf("duplicate registration: recovered %v, want %q", v, want)
			}
		}()
		r.Register("a", "again", func() int { return 3 })
	}()
	if f, _ := r.Lookup("a"); f() != 1 {
		t.Fatal("a duplicate registration replaced the first entry")
	}
}
