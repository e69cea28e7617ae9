package dist

import (
	"bytes"
	"testing"

	"massf/internal/des"
	"massf/internal/pdes"
	"massf/internal/wire"
)

// FuzzControlDecode drives the decoders of every control payload a worker
// or the coordinator reads off the network with arbitrary bytes: none may
// panic, and a WindowDone that decodes must re-encode to the same bytes —
// the decoder accepts exactly what the encoder writes.
func FuzzControlDecode(f *testing.F) {
	ms := des.Millisecond
	f.Add(encodeWindowDone(nil, pdes.WindowDone{
		Start: ms, End: 2 * ms, MaxBusy: 7, LocalNext: 2 * ms, Stop: true,
		Events: []wire.Event{{At: int64(3 * ms), Src: 1, Dst: 2, Seq: 3, Kind: 4, Payload: []byte{5, 6}}},
	}))
	f.Add(encodeWindowDone(nil, pdes.WindowDone{End: ms, LocalNext: des.EndOfTime}))
	f.Add(encodeAssignment(assignment{
		Job:   Job{Kind: "x", First: 1, Hosted: 2, Spec: []byte("spec")},
		Index: 1, Peers: []peerInfo{{"127.0.0.1:1", 0, 1}, {"127.0.0.1:2", 1, 2}},
	}))
	f.Add(encodeResult(summary{windows: 3, busyNS: 9, stopped: true}, []byte("payload")))
	f.Add(encodeAbort(1, wire.ErrCRC))
	f.Add(encodeHello("w0", "127.0.0.1:3"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		if d, err := decodeWindowDone(p); err == nil {
			if out := encodeWindowDone(nil, d); !bytes.Equal(out, p) {
				t.Fatalf("WindowDone round trip:\n in  %x\n out %x", p, out)
			}
		}
		_, _ = decodeAssignment(p)
		_, _, _ = decodeResult(p)
		_, _ = decodeAbort(p)
		_, _, _ = decodeHello(p)
		_, _ = decodeCount(p)
	})
}
