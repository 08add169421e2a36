package msgcache

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/soapenc"
)

// randomScalar draws one cacheable value, biased toward the nasty corners:
// XML-significant characters, empty strings, integer class boundaries,
// negative zero and extreme floats.
func randomScalar(r *rand.Rand) soapenc.Value {
	switch r.Intn(7) {
	case 6: // special-dense strings: long enough that most take a CDATA section
		// — and, one time in four, something that may not stand in one.
		alphabet := []string{"<", ">", "&", `"`, "]]", "<![CDATA[", "</p0>", "x", " ", "é"}
		var b strings.Builder
		for i, n := 0, r.Intn(40); i < n; i++ {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		if r.Intn(4) == 0 {
			b.WriteString([]string{"]]>", "\r", "\x00", "\xff"}[r.Intn(4)])
		}
		return b.String()
	case 0: // strings, often with markup characters and quotes
		alphabet := []rune(`<>&"' abcXYZ;=/-_.` + "\té漢")
		n := r.Intn(20)
		runes := make([]rune, n)
		for i := range runes {
			runes[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(runes)
	case 1: // int32-range ints, including the exact boundaries
		boundaries := []int64{0, 1, -1, math.MaxInt32, math.MinInt32}
		if r.Intn(2) == 0 {
			return boundaries[r.Intn(len(boundaries))]
		}
		return int64(int32(r.Uint32()))
	case 2: // ints just past the int32 boundary (xsd:long territory)
		if r.Intn(2) == 0 {
			return int64(math.MaxInt32) + 1 + int64(r.Intn(1000))
		}
		return int64(math.MinInt32) - 1 - int64(r.Intn(1000))
	case 3: // floats
		floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e-300, 1e300, math.MaxFloat64}
		if r.Intn(2) == 0 {
			return floats[r.Intn(len(floats))]
		}
		return r.NormFloat64() * 1e6
	case 4:
		return r.Intn(2) == 0
	default:
		return int32(r.Uint32())
	}
}

func TestDifferentialRenderMatchesFullSerialization(t *testing.T) {
	// Property: for randomized cacheable parameter lists, the template
	// cache's spliced output is byte-identical to the full serializer —
	// on the template-building miss AND on the cached-template hit. The
	// parameter lists are drawn from a fixed seed, and
	// testdata/differential.golden holds the documents of the first hundred
	// rounds, one quoted line a round (-update rewrites it).
	r := rand.New(rand.NewSource(7))
	cache := New()
	const rounds = 400
	sections := 0
	var wrote []string
	for round := 0; round < rounds; round++ {
		op := fmt.Sprintf("op%d", r.Intn(8))
		ns := "urn:spi:Diff"
		n := r.Intn(5)
		params := make([]soapenc.Field, n)
		for i := range params {
			params[i] = soapenc.F(fmt.Sprintf("p%d", i), randomScalar(r))
		}
		wantDoc := fullSerialize(t, ns, op, params)
		if round < 100 {
			wrote = append(wrote, strconv.Quote(string(wantDoc)))
		}
		sections += bytes.Count(wantDoc, []byte("<![CDATA["))
		for pass := 0; pass < 2; pass++ { // pass 0 may build, pass 1 must hit
			got, ok, err := render(cache, "Diff", ns, op, params)
			if err != nil {
				t.Fatalf("round %d pass %d: Render error: %v (params %+v)", round, pass, err, params)
			}
			if !ok {
				t.Fatalf("round %d: scalar-only params reported uncacheable: %+v", round, params)
			}
			if !bytes.Equal(got, wantDoc) {
				t.Fatalf("round %d pass %d: template output diverged\nparams: %+v\n got: %s\nwant: %s",
					round, pass, params, got, wantDoc)
			}
		}
	}
	const golden = "testdata/differential.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(strings.Join(wrote, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if want := strings.Split(strings.TrimSuffix(string(file), "\n"), "\n"); len(want) != len(wrote) {
		t.Fatalf("%d rounds, %s holds %d", len(wrote), golden, len(want))
	} else {
		for i := range wrote {
			if wrote[i] != want[i] {
				t.Fatalf("round %d: the full serializer wrote %s\n%s holds %s", i, wrote[i], golden, want[i])
			}
		}
	}
	// Every second pass renders from a template the first pass built, so
	// a split of hits and misses means fewer templates than rounds.
	if n := len(cache.templates); n == 0 || n >= rounds {
		t.Errorf("differential run exercised no cache hit/miss split: %d templates over %d rounds", n, rounds)
	}
	if sections < 50 {
		t.Errorf("only %d values went out as CDATA sections: the special-dense strings are not dense enough", sections)
	}
}

func TestDifferentialUncacheableShapes(t *testing.T) {
	cache := New()
	for _, params := range [][]soapenc.Field{
		{soapenc.F("arr", []soapenc.Value{int32(1), int32(2)})},
		{soapenc.F("nested", &soapenc.Struct{Fields: []soapenc.Field{soapenc.F("x", int32(1))}})},
		{soapenc.F("nil", nil)},
	} {
		_, ok, err := render(cache, "Diff", "urn:spi:Diff", "op", params)
		if err != nil {
			t.Fatalf("uncacheable shape errored instead of declining: %v", err)
		}
		if ok {
			t.Errorf("non-scalar shape claimed cacheable: %+v", params)
		}
	}
	if n := len(cache.templates); n != 0 {
		t.Errorf("uncacheable shapes built %d templates", n)
	}
}
