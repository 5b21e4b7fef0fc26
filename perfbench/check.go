package main

// Correctness checks applied to every result the benchmark receives. A
// failed check fails the run: a wrong result is never counted as a slow one.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/gen"
	"repro/internal/serve"
)

// errSINRInvalidMIS marks a completed phy:sinr MIS whose set is not an
// independent set of the decode-range graph. Radio MIS's guarantee is for
// the graph model; under SINR physics interference can keep two neighbors
// from hearing each other, and the service reports valid = 0 truthfully.
// It is a defect of the program, not of the benchmark: runs count such a
// result as not OK (lowering ok_share and slo_share) and in the report
// field sinr_invalid_mis, rather than failing. See NOTES.md.
var errSINRInvalidMIS = errors.New("MIS under SINR physics is not independent in the decode-range graph")

// recordRows parses a result body and returns its spec hash and, per sample
// name, the row's mean cell (for one replica, the sample value itself).
func recordRows(body []byte) (hash string, rows map[string]string, err error) {
	var res serve.Result
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return "", nil, fmt.Errorf("result is not a serve.Result: %w", err)
	}
	if len(res.Record.Tables) != 1 {
		return "", nil, fmt.Errorf("result has %d tables, want 1", len(res.Record.Tables))
	}
	t := res.Record.Tables[0]
	mean := -1
	for i, h := range t.Header {
		if h == "mean" {
			mean = i
		}
	}
	if mean < 0 {
		return "", nil, fmt.Errorf("result table has no mean column")
	}
	rows = make(map[string]string, len(t.Rows))
	for _, r := range t.Rows {
		if len(r) != len(t.Header) {
			return "", nil, fmt.Errorf("result row %v does not match header %v", r, t.Header)
		}
		rows[r[0]] = r[mean]
	}
	return res.SpecHash, rows, nil
}

// rowValue reads a numeric sample row.
func rowValue(rows map[string]string, name string) (float64, error) {
	cell, ok := rows[name]
	if !ok {
		return 0, fmt.Errorf("result has no %q row", name)
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, fmt.Errorf("result row %q: %w", name, err)
	}
	return v, nil
}

// checkBody checks a result body for sp: it must be the result of sp's
// canonical form, and its samples must satisfy the algorithm's contract —
// MIS completed and valid (errSINRInvalidMIS for an invalid one under
// SINR); broadcast complete within (0, total].
func checkBody(sp serve.Spec, body []byte) error {
	c, err := sp.Canonicalize()
	if err != nil {
		return err
	}
	hash, rows, err := recordRows(body)
	if err != nil {
		return err
	}
	if want := c.Hash(); hash != want {
		return fmt.Errorf("result spec_hash %s, want %s", hash, want)
	}
	model, _, isPhy := gen.SplitPhySpec(c.Graph)
	return checkSamples(c.Algo, isPhy && model == "sinr", rows)
}

func checkSamples(algo string, sinr bool, rows map[string]string) error {
	switch algo {
	case "mis":
		for _, name := range []string{"completed", "valid"} {
			v, err := rowValue(rows, name)
			if err != nil {
				return err
			}
			if v == 1 {
				continue
			}
			if name == "valid" && sinr {
				return errSINRInvalidMIS
			}
			return fmt.Errorf("MIS %s = %v, want 1", name, v)
		}
	case "broadcast", "decay-broadcast":
		complete, err := rowValue(rows, "complete")
		if err != nil {
			return err
		}
		total := complete
		if algo == "broadcast" {
			if total, err = rowValue(rows, "total"); err != nil {
				return err
			}
		}
		if complete <= 0 || complete > total {
			return fmt.Errorf("broadcast complete = %v, want in (0, %v]", complete, total)
		}
	}
	return nil
}

// equivalenceRows are the sample values a traced rebuild must reproduce.
var equivalenceRows = map[string]bool{
	"mis_size": true, "steps": true, "valid": true, "completed": true,
	"complete": true, "total": true, "main": true, "mis_steps": true,
}

// checkEquivalent compares a traced rebuild's sample values with the
// untraced record, at the precision the record prints them.
func checkEquivalent(values map[string]float64, body []byte) error {
	_, rows, err := recordRows(body)
	if err != nil {
		return err
	}
	n := 0
	for name, v := range values {
		if !equivalenceRows[name] {
			continue
		}
		n++
		if got := fmt.Sprintf("%.4g", v); got != rows[name] {
			return fmt.Errorf("%s: traced %s, serve.Execute %q", name, got, rows[name])
		}
	}
	if n == 0 {
		return fmt.Errorf("no comparable sample values")
	}
	return nil
}

// corruptBody returns a copy of a result whose first sample row claims a
// different value — what a wrong result looks like to the checks.
func corruptBody(body []byte) []byte {
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil || len(res.Record.Tables) == 0 {
		return append([]byte("corrupt"), body...)
	}
	for _, row := range res.Record.Tables[0].Rows {
		if row[0] == "completed" || row[0] == "complete" {
			row[2] = "0"
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return append([]byte("corrupt"), body...)
	}
	return out
}
