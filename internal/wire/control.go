package wire

// WriteClose emits a Close (drain request) frame.
func (w *Writer) WriteClose() error {
	return w.writeFrame(FrameClose, w.scratch(0))
}

// WriteClosed emits a Closed frame with the final session statistics.
func (w *Writer) WriteClosed(st Stats) error {
	b := w.scratch(0)
	b = appendUvarint(b, st.TuplesIn)
	b = appendUvarint(b, st.BatchesIn)
	b = appendUvarint(b, st.ResultsOut)
	return w.writeFrame(FrameClosed, b)
}

// WriteError emits an Error frame with a human-readable message.
func (w *Writer) WriteError(msg string) error {
	return w.writeFrame(FrameError, append(w.scratch(len(msg)), msg...))
}

// DecodeClosed parses a Closed payload.
func DecodeClosed(payload []byte) (Stats, error) {
	c := cursor{b: payload}
	st := Stats{TuplesIn: c.uvarint(), BatchesIn: c.uvarint(), ResultsOut: c.uvarint()}
	if err := c.finish(); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// DecodeError parses an Error payload.
func DecodeError(payload []byte) string {
	return string(payload)
}
