package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the text exposition format the daemons serve on
// /metrics: comment lines are skipped, label values are unquoted.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s := promSample{}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics line %q: unbalanced braces", line)
			}
			s.name = line[:i]
			labels, err := parseLabels(line[i+1 : j])
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %v", line, err)
			}
			s.labels = labels
			rest = strings.TrimSpace(line[j+1:])
		} else {
			name, value, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("metrics line %q: no value", line)
			}
			s.name, rest = name, strings.TrimSpace(value)
		}
		// A timestamp may follow the value.
		field, _, _ := strings.Cut(rest, " ")
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, nil
}

func parseLabels(text string) (map[string]string, error) {
	labels := map[string]string{}
	for text != "" {
		name, rest, ok := strings.Cut(text, "=")
		if !ok {
			return nil, fmt.Errorf("label without value in %q", text)
		}
		value, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("label %s: %v", name, err)
		}
		unquoted, err := strconv.Unquote(value)
		if err != nil {
			return nil, fmt.Errorf("label %s: %v", name, err)
		}
		labels[strings.TrimSpace(name)] = unquoted
		text = strings.TrimPrefix(strings.TrimSpace(rest[len(value):]), ",")
		text = strings.TrimSpace(text)
	}
	return labels, nil
}

// promValues returns the values of every sample of a family, in order.
func promValues(samples []promSample, name string) []float64 {
	var out []float64
	for _, s := range samples {
		if s.name == name {
			out = append(out, s.value)
		}
	}
	return out
}

func promSum(samples []promSample, name string) float64 {
	var sum float64
	for _, v := range promValues(samples, name) {
		sum += v
	}
	return sum
}
