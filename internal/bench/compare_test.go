package bench

import (
	"errors"
	"strings"
	"testing"
)

// TestComparisonTakesTurns: the variants run once a round each, in the order
// they were added, warm-up rounds included; a failed run names its variant;
// close tears down in reverse.
func TestComparisonTakesTurns(t *testing.T) {
	var order, closed []string
	var c comparison
	for _, name := range []string{"a", "b", "c"} {
		c.add(name, "note "+name, func() error { order = append(order, name); return nil })
		c.onClose(func() { closed = append(closed, name) })
	}
	r, err := c.table("T", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abcabcabcabcabc" {
		t.Errorf("runs went %s, want five rounds of abc", got)
	}
	if len(r.Rows) != 3 || r.Rows[1].Name != "b" || r.Rows[1].Note != "note b" {
		t.Errorf("rows = %+v", r.Rows)
	}
	c.close()
	if got := strings.Join(closed, ""); got != "cba" {
		t.Errorf("closed %s, want cba", got)
	}

	boom := errors.New("boom")
	var d comparison
	d.add("fine", "", func() error { return nil })
	d.add("broken", "", func() error { return boom })
	if _, err := d.run(1, 1); !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "broken: ") {
		t.Errorf("err = %v, want boom named by its variant", err)
	}
}
