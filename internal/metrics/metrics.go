// Package metrics writes the Prometheus text exposition format, version
// 0.0.4. It is the one place that knows the line layout, the label
// quoting and the value formatting; streamd and streamshard emit every
// metric family through it. It is a writer, not a registry: callers
// snapshot their own counters and write each family once per scrape.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// ContentType is the HTTP Content-Type of a text-format 0.0.4 scrape.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

var (
	// The format's escapes: HELP text escapes backslash and newline,
	// label values also the double quote. On printable ASCII this is
	// byte-identical to Go's %q.
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// Writer writes exposition lines to an io.Writer. Write errors are
// dropped: a scrape whose client has gone away has nobody to report to.
type Writer struct{ out io.Writer }

// NewWriter returns a Writer emitting to out.
func NewWriter(out io.Writer) *Writer { return &Writer{out} }

// Family writes the HELP and TYPE lines that open a metric family; kind
// is "counter" or "gauge". The family's samples follow it.
func (w *Writer) Family(name, kind, help string) {
	fmt.Fprintf(w.out, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, kind)
}

// Sample writes one sample line. labelPairs alternate label names and
// values, printed in order. value is an int, int64 or uint64 (printed in
// decimal), a float64 (printed in its shortest form, as %v does), or a
// bool (printed as 1 or 0).
func (w *Writer) Sample(name string, value any, labelPairs ...string) {
	var labels strings.Builder
	for i := 0; i < len(labelPairs); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&labels, `%s%s="%s"`, sep, labelPairs[i], labelEscaper.Replace(labelPairs[i+1]))
	}
	if labels.Len() > 0 {
		labels.WriteByte('}')
	}
	switch v := value.(type) {
	case int, int64, uint64, float64: // %v already prints the format's form
	case bool:
		value = 0
		if v {
			value = 1
		}
	default:
		panic(fmt.Sprintf("metrics: %s: unsupported sample value %T", name, value))
	}
	fmt.Fprintf(w.out, "%s%s %v\n", name, labels.String(), value)
}

// Counter writes an unlabelled counter family and its one sample.
func (w *Writer) Counter(name, help string, value any) {
	w.Family(name, "counter", help)
	w.Sample(name, value)
}

// Gauge writes an unlabelled gauge family and its one sample.
func (w *Writer) Gauge(name, help string, value any) {
	w.Family(name, "gauge", help)
	w.Sample(name, value)
}
