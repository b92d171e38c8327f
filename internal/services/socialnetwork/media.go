package socialnetwork

import (
	"fmt"
	"hash/crc32"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// Media size limits mirror production post limits the paper cites (videos
// kept within a few MB, like Twitter's allowances).
const (
	maxImageBytes = 1 << 20
	maxVideoBytes = 4 << 20
)

// UploadMediaReq carries raw media bytes.
type UploadMediaReq struct {
	Kind string // MediaImage or MediaVideo
	Data []byte
}

// UploadMediaResp returns the stored media record.
type UploadMediaResp struct{ Media Media }

// GetMediaReq fetches media metadata by ID.
type GetMediaReq struct{ ID string }

// GetMediaResp returns the record if found.
type GetMediaResp struct {
	Media Media
	Found bool
}

// registerMedia installs the image/video service. Images get a real 64-bit
// average-hash computed over an 8x8 downsample of the byte grid (the same
// perceptual-hash computation an image tier performs for dedup and
// thumbnails); videos get a checksum and a duration derived from size at
// the synthetic bitrate.
func registerMedia(srv *rpc.Server, db svcutil.DB, uid svcutil.Caller) {
	svcutil.Handle(srv, "Upload", func(ctx *rpc.Ctx, req *UploadMediaReq) (*UploadMediaResp, error) {
		m := Media{Kind: req.Kind, Bytes: int64(len(req.Data))}
		switch req.Kind {
		case MediaImage:
			if len(req.Data) > maxImageBytes {
				return nil, rpc.Errorf(rpc.CodeBadRequest, "media: image exceeds %d bytes", maxImageBytes)
			}
			m.Hash = averageHash(req.Data)
		case MediaVideo:
			if len(req.Data) > maxVideoBytes {
				return nil, rpc.Errorf(rpc.CodeBadRequest, "media: video exceeds %d bytes", maxVideoBytes)
			}
			m.Hash = uint64(crc32.ChecksumIEEE(req.Data))
			// Synthetic bitrate: 512 kbit/s => bytes / 64k = seconds.
			m.Duration = int64(len(req.Data)) * 1e9 / (64 << 10)
		default:
			return nil, rpc.Errorf(rpc.CodeBadRequest, "media: unknown kind %q", req.Kind)
		}
		var ur UniqueIDResp
		if err := uid.Call(ctx, "Next", UniqueIDReq{}, &ur); err != nil {
			return nil, err
		}
		m.ID = "m-" + ur.ID
		body, err := codec.Marshal(m)
		if err != nil {
			return nil, err
		}
		if err := db.Put(ctx, "media", docstore.Doc{ID: m.ID, Body: body}); err != nil {
			return nil, err
		}
		return &UploadMediaResp{Media: m}, nil
	})
	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *GetMediaReq) (*GetMediaResp, error) {
		doc, found, err := db.Get(ctx, "media", req.ID)
		if err != nil {
			return nil, err
		}
		if !found {
			return &GetMediaResp{}, nil
		}
		var m Media
		if err := codec.Unmarshal(doc.Body, &m); err != nil {
			return nil, fmt.Errorf("media: corrupt record %s: %w", req.ID, err)
		}
		return &GetMediaResp{Media: m, Found: true}, nil
	})
}

// averageHash treats the payload as a square grayscale pixel grid,
// downsamples it to 8x8 by block averaging, and sets one bit per cell that
// is brighter than the global mean — a real perceptual-hash computation on
// whatever bytes the client uploads.
func averageHash(data []byte) uint64 {
	if len(data) == 0 {
		return 0
	}
	// Treat the buffer as a side x side image, clipping the ragged tail.
	side := 1
	for (side+1)*(side+1) <= len(data) {
		side++
	}
	cell := side / 8
	if cell == 0 {
		cell = 1
	}
	var sums [8][8]uint64
	var counts [8][8]uint64
	for y := 0; y < side; y++ {
		cy := y / cell
		if cy > 7 {
			cy = 7
		}
		row := y * side
		for x := 0; x < side; x++ {
			cx := x / cell
			if cx > 7 {
				cx = 7
			}
			sums[cy][cx] += uint64(data[row+x])
			counts[cy][cx]++
		}
	}
	var total, n uint64
	var avg [8][8]uint64
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if counts[y][x] > 0 {
				avg[y][x] = sums[y][x] / counts[y][x]
				total += avg[y][x]
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	mean := total / n
	var h uint64
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			h <<= 1
			if counts[y][x] > 0 && avg[y][x] > mean {
				h |= 1
			}
		}
	}
	return h
}
