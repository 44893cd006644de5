package daemon

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"nfvmcast/internal/wal"
)

// The two answers that carry a solution, SubmitResponse and
// ReleaseResponse, are the daemon's hot answers: they are appended here
// field by field instead of through encoding/json's reflection and its
// second, indenting pass. The bytes are exactly those of a json.Encoder
// with SetIndent("", "  ") — the conformance golden and the load
// generator's response scanner both hold that layout — so every rule
// below mirrors encoding/json's: ints in base 10, floats in its 'f'/'e'
// choice, nil slices as null, empty ones as [], omitempty on segd and
// proc, HTML-safe string escaping, and an error on a non-finite float.
// Every other answer is cold and stays on encoding/json.

// maxPooledAnswer caps the buffers kept for reuse: one huge report must
// not pin its memory in the pool for the daemon's lifetime.
const maxPooledAnswer = 64 << 10

var answerPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// appendAnswer appends v's indented JSON, newline-terminated, to b.
func appendAnswer(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case SubmitResponse:
		b = append(b, "{\n  \"id\": "...)
		b = strconv.AppendInt(b, int64(v.ID), 10)
		b = append(b, ",\n  \"shard\": "...)
		b = appendString(b, v.Shard)
		return appendSolutionField(b, v.Solution)
	case ReleaseResponse:
		b = append(b, "{\n  \"id\": "...)
		b = strconv.AppendInt(b, int64(v.ID), 10)
		return appendSolutionField(b, v.Solution)
	}
	buf := bytes.NewBuffer(b)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// appendSolutionField closes an answer with its "solution" member: the
// record's members are indented to depth 2, its arrays' elements to
// depth 3.
func appendSolutionField(b []byte, s *wal.SolutionRecord) ([]byte, error) {
	b = append(b, ",\n  \"solution\": "...)
	if s == nil {
		return append(b, "null\n}\n"...), nil
	}
	var err error
	b = append(b, "{\n    \"servers\": "...)
	if s.Servers == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range s.Servers {
			b = appendElem(b, i)
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = closeArray(b, len(s.Servers))
	}
	if len(s.ServerDemands) > 0 {
		b = append(b, ",\n    \"segd\": ["...)
		for i, v := range s.ServerDemands {
			b = appendElem(b, i)
			if b, err = appendFloat(b, v); err != nil {
				return b, err
			}
		}
		b = closeArray(b, len(s.ServerDemands))
	}
	b = append(b, ",\n    \"hops\": "...)
	if s.Hops == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, h := range s.Hops {
			b = appendElem(b, i)
			b = append(b, "{\n        \"from\": "...)
			b = strconv.AppendInt(b, int64(h.From), 10)
			b = append(b, ",\n        \"to\": "...)
			b = strconv.AppendInt(b, int64(h.To), 10)
			b = append(b, ",\n        \"edge\": "...)
			b = strconv.AppendInt(b, int64(h.Edge), 10)
			if h.Processed {
				b = append(b, ",\n        \"proc\": true"...)
			}
			b = append(b, "\n      }"...)
		}
		b = closeArray(b, len(s.Hops))
	}
	b = append(b, ",\n    \"op_cost\": "...)
	if b, err = appendFloat(b, s.OperationalCost); err != nil {
		return b, err
	}
	b = append(b, ",\n    \"sel_cost\": "...)
	if b, err = appendFloat(b, s.SelectionCost); err != nil {
		return b, err
	}
	return append(b, "\n  }\n}\n"...), nil
}

// appendElem starts element i of a record member's array.
func appendElem(b []byte, i int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return append(b, "\n      "...)
}

// closeArray closes a record member's array of n elements; an empty one
// stays "[]", as encoding/json's indenter leaves it.
func closeArray(b []byte, n int) []byte {
	if n == 0 {
		return append(b, ']')
	}
	return append(b, "\n    ]"...)
}

// appendFloat appends f as encoding/json does for a float64.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as in encoding/json.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s quoted. Printable ASCII without '"', '\\' or
// the HTML-sensitive '<', '>', '&' is copied as is; anything else takes
// encoding/json's own escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
