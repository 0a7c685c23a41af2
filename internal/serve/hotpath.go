package serve

import (
	"math"
	"strconv"
)

// fwdScratch is the pooled per-request workspace of the forwarding hot
// path: the response JSON is appended into out, so in the steady state a
// forwarded request touches no heap for the gateway's own work
// (TestForwardPathAllocs gates the pieces; net/http's internal allocations
// on the front hop are outside the claim). The buffer grows to the
// high-water mark and stays there — responses are tens of bytes.
type fwdScratch struct {
	out []byte
}

// appendSubmitResponse appends the SubmitResponse wire form (field order
// and trailing newline matching encoding/json's output for the struct)
// without an Encoder allocation.
func appendSubmitResponse(out []byte, user, backend int, service, elapsed float64) []byte {
	out = append(out, `{"user":`...)
	out = strconv.AppendInt(out, int64(user), 10)
	out = append(out, `,"backend":`...)
	out = strconv.AppendInt(out, int64(backend), 10)
	out = append(out, `,"service_s":`...)
	out = appendJSONFloat(out, service)
	out = append(out, `,"elapsed_s":`...)
	out = appendJSONFloat(out, elapsed)
	out = append(out, '}', '\n')
	return out
}

// appendJSONFloat appends a float in valid JSON syntax: shortest 'g' form,
// guarded against the non-JSON Inf/NaN spellings.
func appendJSONFloat(out []byte, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return append(out, '0')
	}
	return strconv.AppendFloat(out, v, 'g', -1, 64)
}
