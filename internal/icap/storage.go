package icap

import (
	"time"

	"prpart/internal/bitstream"
)

// Storage models the external memory that holds partial bitstreams. The
// paper notes that realised reconfiguration time "also depends upon
// additional factors such as the delay in fetching partial bitstreams
// from external memory and transfer speed through the internal
// configuration interface"; this type supplies the fetch half.
type Storage struct {
	// Name labels the storage in reports ("DDR2", "CF card", ...).
	Name string
	// Latency is the fixed per-access setup cost.
	Latency time.Duration
	// BytesPerSec is the sustained fetch bandwidth.
	BytesPerSec int64
	// Streamed reports whether fetch and ICAP transfer overlap (a DMA
	// engine feeding ICAP directly, as in the authors' controller [15]).
	// When false the bitstream is staged completely before transfer.
	Streamed bool
}

// DDR2 returns a typical DDR2 interface: fast and streamed.
func DDR2() *Storage {
	return &Storage{Name: "DDR2", Latency: 200 * time.Nanosecond, BytesPerSec: 1600 << 20, Streamed: true}
}

// CompactFlash returns a slow staged storage: the worst case the paper's
// domain worries about.
func CompactFlash() *Storage {
	return &Storage{Name: "CompactFlash", Latency: time.Millisecond, BytesPerSec: 20 << 20, Streamed: false}
}

// FetchTime returns the time to read n bytes from the storage.
func (s *Storage) FetchTime(n int) time.Duration {
	if s.BytesPerSec <= 0 {
		return s.Latency
	}
	return s.Latency + time.Duration(float64(n)/float64(s.BytesPerSec)*float64(time.Second))
}

// AttachStorage makes subsequent Loads account bitstream fetch time from
// the given storage. Nil detaches (pure ICAP transfer time).
func (p *Port) AttachStorage(s *Storage) { p.storage = s }

// LoadTime returns the end-to-end time a Load of the bitstream would
// take with the current storage model: the maximum of fetch and transfer
// when streamed, their sum when staged, or plain transfer time with no
// storage attached.
func (p *Port) LoadTime(bs *bitstream.Bitstream) time.Duration {
	xfer := p.TransferTime(len(bs.Words))
	if p.storage == nil {
		return xfer
	}
	fetch := p.storage.FetchTime(bs.Bytes())
	if p.storage.Streamed {
		if fetch > xfer {
			return fetch
		}
		return xfer
	}
	return fetch + xfer
}
