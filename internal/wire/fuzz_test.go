package wire

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode drives ReadFrame with arbitrary bytes: it must never
// panic, must only accept frames that re-encode byte-identically, and must
// report a typed error for everything else.
func FuzzFrameDecode(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, MsgHello, []byte("worker-0"))
	f.Add(seed.Bytes())
	seed.Reset()
	_ = WriteFrame(&seed, MsgWindowDone, AppendEvents(nil, []Event{
		{At: 100, Src: 1, Dst: 2, Seq: 3, Kind: 4, Payload: []byte{5, 6}},
	}))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{'M', 'F', Version, MsgAbort, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		typ, payload, err := ReadFrame(rd, 1<<16)
		if err != nil {
			return
		}
		n := len(data) - rd.Len()
		// An accepted frame must round-trip byte-identically.
		var out bytes.Buffer
		if werr := WriteFrame(&out, typ, payload); werr != nil {
			t.Fatalf("re-encode: %v", werr)
		}
		if !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatalf("round trip mismatch:\n in  %x\n out %x", data[:n], out.Bytes())
		}
		// Event batches inside accepted frames must decode without panic.
		if typ == MsgWindowDone {
			_, _ = ReadEvents(NewReader(payload))
		}
	})
}
