package daemon

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"nfvmcast/internal/wal"
)

// referenceAnswer is the encoding the appender must reproduce byte for
// byte: encoding/json's indented Encoder.
func referenceAnswer(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkAnswer compares appendAnswer with the reference on v: the same
// bytes, or an error from both.
func checkAnswer(t *testing.T, v any) {
	t.Helper()
	want, werr := referenceAnswer(v)
	got, gerr := appendAnswer(nil, v)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%#v: reference error %v, appender error %v", v, werr, gerr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%#v: appender diverged\n--- got ---\n%s--- want ---\n%s", v, got, want)
	}
}

// oracleStrings are the shard names whose escaping differs from a plain
// copy, plus plain ones.
var oracleStrings = []string{
	"", "s0", "s1", "shard-12", "a<b", "x&y", "q>r", `quo"te`, `back\slash`,
	"tab\there", "nl\n", "\x00\x1f", "del\x7f", "line\u2028sep", "para\u2029", "café", "é",
	"日本", "\xff\xfe", "bad\xc3(utf8", "<&\"\\>", "emoji 🙂",
}

// oracleFloat draws from every formatting regime of encoding/json's
// float rule: zeros of both signs, integers, ordinary fractions, the
// e-notation ranges on both sides, and the boundaries between them.
func oracleFloat(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(rng.Intn(100000))
	case 3:
		return rng.Float64() * 1e4
	case 4:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
	case 5:
		return rng.Float64() * 1e-6 // below 1e-6: e-notation
	case 6:
		return math.Pow(10, float64(-rng.Intn(12))) * float64(1+rng.Intn(9))
	case 7:
		return (1 + rng.Float64()) * math.Pow(10, float64(19+rng.Intn(5))) // straddles 1e21
	case 8:
		return []float64{1e-6, 1e21, 1e20, 9.999999999999999e-7, math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-7}[rng.Intn(7)]
	default:
		return rng.NormFloat64() * 1000
	}
}

func oracleInt(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -rng.Intn(1000)
	case 2:
		return math.MaxInt64 - rng.Intn(3)
	case 3:
		return math.MinInt64 + rng.Intn(3)
	default:
		return rng.Intn(5000)
	}
}

func oracleSolution(rng *rand.Rand) *wal.SolutionRecord {
	if rng.Intn(12) == 0 {
		return nil
	}
	s := &wal.SolutionRecord{OperationalCost: oracleFloat(rng), SelectionCost: oracleFloat(rng)}
	switch rng.Intn(4) {
	case 0: // nil servers
	case 1:
		s.Servers = []int{}
	default:
		for i := rng.Intn(6); i >= 0; i-- {
			s.Servers = append(s.Servers, oracleInt(rng))
		}
	}
	switch rng.Intn(4) {
	case 0: // nil segd: omitted
	case 1:
		s.ServerDemands = []float64{} // empty segd: omitted too
	default:
		for i := rng.Intn(4); i >= 0; i-- {
			s.ServerDemands = append(s.ServerDemands, oracleFloat(rng))
		}
	}
	switch rng.Intn(5) {
	case 0: // nil hops
	case 1:
		s.Hops = []wal.HopRecord{}
	default:
		for i := rng.Intn(30); i >= 0; i-- {
			s.Hops = append(s.Hops, wal.HopRecord{
				From: oracleInt(rng), To: oracleInt(rng), Edge: oracleInt(rng), Processed: rng.Intn(2) == 0,
			})
		}
	}
	return s
}

// TestAppendAnswerMatchesEncodingJSON is the randomized oracle: 20,000
// submit and release answers, byte for byte against encoding/json.
func TestAppendAnswerMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const cases = 20000
	for i := 0; i < cases; i++ {
		sol := oracleSolution(rng)
		id := oracleInt(rng)
		if i%2 == 0 {
			shard := oracleStrings[rng.Intn(len(oracleStrings))]
			if rng.Intn(4) == 0 {
				shard += oracleStrings[rng.Intn(len(oracleStrings))]
			}
			checkAnswer(t, SubmitResponse{ID: id, Shard: shard, Solution: sol})
		} else {
			checkAnswer(t, ReleaseResponse{ID: id, Solution: sol})
		}
	}
}

// TestAppendAnswerNonFinite: a NaN or an Inf anywhere in a solution
// fails the encode, as it does in encoding/json.
func TestAppendAnswerNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, sol := range []*wal.SolutionRecord{
			{OperationalCost: bad},
			{SelectionCost: bad},
			{ServerDemands: []float64{1, bad}},
		} {
			if _, err := appendAnswer(nil, SubmitResponse{Solution: sol}); err == nil {
				t.Fatalf("solution %+v encoded without error", sol)
			}
			checkAnswer(t, ReleaseResponse{Solution: sol})
		}
	}
}

// TestAppendAnswerCoversEveryField guards the appender against a field
// added to the answer types: every JSON-tagged field of SubmitResponse,
// ReleaseResponse, wal.SolutionRecord and wal.HopRecord is set to a
// non-zero value by reflection, and the appender must write exactly what
// encoding/json writes for it.
func TestAppendAnswerCoversEveryField(t *testing.T) {
	for _, v := range []any{&SubmitResponse{}, &ReleaseResponse{}} {
		rv := reflect.ValueOf(v).Elem()
		fillFields(t, rv)
		ans := rv.Interface()
		got, err := appendAnswer(nil, ans)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := referenceAnswer(ans)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: appender diverged from encoding/json\n--- got ---\n%s--- want ---\n%s", rv.Type(), got, want)
		}
		for _, tag := range jsonTags(rv.Type()) {
			if !bytes.Contains(got, []byte(`"`+tag+`": `)) {
				t.Errorf("%s: appender does not write %q", rv.Type(), tag)
			}
		}
	}
}

// fillFields sets every exported field under v to a non-zero value.
func fillFields(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillFields(t, v.Field(i))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillFields(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillFields(t, v.Index(i))
		}
	case reflect.Int:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(2.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s1")
	default:
		t.Fatalf("field of kind %s: teach fillFields and the appender about it", v.Kind())
	}
}

// jsonTags lists the JSON member names under typ, nested records
// included.
func jsonTags(typ reflect.Type) []string {
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		return nil
	}
	var tags []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" || !f.IsExported() {
			continue
		}
		if name == "" {
			name = f.Name
		}
		tags = append(tags, name)
		tags = append(tags, jsonTags(f.Type)...)
	}
	return tags
}

// FuzzSolutionResponse compares the appender with encoding/json on
// fuzzed ids, shard names, costs and hop fields.
func FuzzSolutionResponse(f *testing.F) {
	f.Add(1, "s0", 12.5, 3.0, 3, 6, 39, true, uint8(3))
	f.Add(-4, "<&\"\\>", 1e-7, 1e21, 0, 0, 0, false, uint8(0))
	f.Add(0, "café\u2028", math.Copysign(0, -1), 5e-324, -1, 2, 1<<40, true, uint8(31))
	f.Add(9, "\xff", math.NaN(), 1.0, 1, 2, 3, false, uint8(1))
	f.Fuzz(func(t *testing.T, id int, shard string, op, sel float64, from, to, edge int, proc bool, n uint8) {
		sol := &wal.SolutionRecord{Servers: []int{to, from}, OperationalCost: op, SelectionCost: sel}
		if n&0x40 != 0 {
			sol.ServerDemands = []float64{sel, op}
		}
		if n&0x80 == 0 {
			sol.Hops = make([]wal.HopRecord, n&0x1f)
			for i := range sol.Hops {
				sol.Hops[i] = wal.HopRecord{From: from + i, To: to - i, Edge: edge ^ i, Processed: proc != (i%2 == 1)}
			}
		}
		checkAnswer(t, SubmitResponse{ID: id, Shard: shard, Solution: sol})
		checkAnswer(t, ReleaseResponse{ID: id, Solution: sol})
	})
}

// TestWriteJSONEncodeFailure: a value that cannot be encoded is answered
// 500 with the internal envelope, not as an empty 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	for _, v := range []any{
		SubmitResponse{ID: 1, Shard: "s0", Solution: &wal.SolutionRecord{OperationalCost: math.NaN()}},
		ReleaseResponse{ID: 1, Solution: &wal.SolutionRecord{ServerDemands: []float64{math.Inf(1)}}},
		map[string]float64{"x": math.NaN()}, // a cold answer, on encoding/json
	} {
		rec := newRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.status != http.StatusInternalServerError {
			t.Fatalf("%#v: status %d, want 500", v, rec.status)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.body.Bytes(), &e); err != nil {
			t.Fatalf("%#v: body %q: %v", v, rec.body.Bytes(), err)
		}
		if e.Code != CodeInternal || !strings.Contains(e.Error, "unsupported value") {
			t.Fatalf("%#v: envelope %+v", v, e)
		}
	}
}

// benchSolution is a 24-hop, two-server solution, the size of a large
// GÉANT answer.
func benchSolution() *wal.SolutionRecord {
	s := &wal.SolutionRecord{Servers: []int{6, 17}, OperationalCost: 1234.5678, SelectionCost: 98.7}
	for i := 0; i < 24; i++ {
		s.Hops = append(s.Hops, wal.HopRecord{From: i, To: i + 1, Edge: 3*i + 2, Processed: i%3 != 0})
	}
	return s
}

// BenchmarkWriteSubmitResponse times one submit answer through the
// daemon's write path into a minimal ResponseWriter.
func BenchmarkWriteSubmitResponse(b *testing.B) {
	resp := SubmitResponse{ID: 4242, Shard: "s1", Solution: benchSolution()}
	rec := newRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.body.Reset()
		writeJSON(rec, http.StatusOK, resp)
	}
}
