package lib

import "testing"

func TestHelper(t *testing.T) {
	if New(Config{Name: "ab", Limit: 3}).Helper() != 2 {
		t.Fatal("Helper")
	}
}
