package socialnetwork

import (
	"encoding/json"
	"fmt"
	"testing"

	"dsb/internal/codec"
)

func benchPage() []Post {
	posts := make([]Post, 20)
	for i := range posts {
		posts[i] = Post{
			ID: fmt.Sprintf("%016x", 0x1234567890+i), Author: fmt.Sprintf("user%03d", i*7),
			Text:     fmt.Sprintf("post %06x by user%03d hello @user%03d see http://sho.rt/%06x", i*977, i*7, i*3, i*31),
			Mentions: []string{fmt.Sprintf("user%03d", i*3)}, URLs: []string{fmt.Sprintf("http://sho.rt/%06x", i*31)},
			MediaIDs: []string{}, CreatedAt: 1700000000000000000 + int64(i),
		}
	}
	return posts
}

func BenchmarkPageJSON(b *testing.B) {
	page := benchPage()
	data, _ := json.Marshal(page)
	b.Run("decode/generated", func(b *testing.B) {
		b.ReportAllocs()
		var scratch []Post
		for i := 0; i < b.N; i++ {
			posts := scratch[:0]
			if err := codec.UnmarshalJSON(data, &posts); err != nil {
				b.Fatal(err)
			}
			scratch = posts
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var scratch []Post
		for i := 0; i < b.N; i++ {
			posts := scratch[:0]
			if err := json.Unmarshal(data, &posts); err != nil {
				b.Fatal(err)
			}
			scratch = posts
		}
	})
	b.Run("encode/generated", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = codec.AppendMarshalJSON(buf[:0], page)
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			json.Marshal(page)
		}
	})
}
