package sqlstore

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"dsb/internal/rpc"
)

func movieSchema() Schema {
	return Schema{
		Name:       "movies",
		PrimaryKey: "id",
		Columns:    []string{"id", "title", "year", "genre"},
		Indexed:    []string{"genre"},
	}
}

func newMovieDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable(movieSchema()); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(Schema{}); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("empty schema: %v", err)
	}
	if err := db.CreateTable(Schema{Name: "t", PrimaryKey: "id", Columns: []string{"x"}}); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("pk not in columns: %v", err)
	}
	if err := db.CreateTable(Schema{Name: "t", PrimaryKey: "id", Columns: []string{"id"}, Indexed: []string{"nope"}}); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("bad index: %v", err)
	}
	good := Schema{Name: "t", PrimaryKey: "id", Columns: []string{"id"}}
	if err := db.CreateTable(good); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(good); !rpc.IsCode(err, rpc.CodeConflict) {
		t.Fatalf("duplicate table: %v", err)
	}
}

func TestInsertGet(t *testing.T) {
	db := newMovieDB(t)
	row := Row{"id": "m1", "title": "Up", "year": "2009", "genre": "animation"}
	if err := db.Insert("movies", row); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("movies", "m1")
	if err != nil || got["title"] != "Up" {
		t.Fatalf("Get = %v, %v", got, err)
	}
	// Returned row is a copy.
	got["title"] = "mutated"
	again, _ := db.Get("movies", "m1")
	if again["title"] != "Up" {
		t.Fatal("Get leaked internal row")
	}
	if _, err := db.Get("movies", "ghost"); !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("missing row: %v", err)
	}
	if _, err := db.Get("ghost_table", "x"); !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("missing table: %v", err)
	}
}

func TestInsertValidation(t *testing.T) {
	db := newMovieDB(t)
	if err := db.Insert("movies", Row{"title": "nope"}); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("missing pk: %v", err)
	}
	if err := db.Insert("movies", Row{"id": "m1", "bogus": "x"}); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("unknown column: %v", err)
	}
	db.Insert("movies", Row{"id": "m1"}) //nolint:errcheck
	if err := db.Insert("movies", Row{"id": "m1"}); !rpc.IsCode(err, rpc.CodeConflict) {
		t.Fatalf("duplicate pk: %v", err)
	}
}

func TestSelectIndexedAndScan(t *testing.T) {
	db := newMovieDB(t)
	for i := 0; i < 10; i++ {
		genre := "drama"
		if i%2 == 0 {
			genre = "comedy"
		}
		db.Insert("movies", Row{"id": fmt.Sprintf("m%02d", i), "year": "2000", "genre": genre}) //nolint:errcheck
	}
	// Indexed column.
	rows, err := db.Select("movies", "genre", "comedy", 0)
	if err != nil || len(rows) != 5 {
		t.Fatalf("Select indexed = %d, %v", len(rows), err)
	}
	if rows[0]["id"] != "m00" {
		t.Fatalf("not pk-ordered: %v", rows[0]["id"])
	}
	// Non-indexed column falls back to a scan.
	rows, err = db.Select("movies", "year", "2000", 3)
	if err != nil || len(rows) != 3 {
		t.Fatalf("Select scan = %d, %v", len(rows), err)
	}
	if _, err := db.Select("movies", "bogus", "x", 0); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("unknown column select: %v", err)
	}
}

func TestUpdateReindexes(t *testing.T) {
	db := newMovieDB(t)
	db.Insert("movies", Row{"id": "m1", "genre": "drama"}) //nolint:errcheck
	err := db.Update("movies", "m1", func(r Row) Row {
		r["genre"] = "comedy"
		r["id"] = "evil-rekey" // must be ignored
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := db.Select("movies", "genre", "drama", 0); len(rows) != 0 {
		t.Fatal("stale index after update")
	}
	rows, _ := db.Select("movies", "genre", "comedy", 0)
	if len(rows) != 1 || rows[0]["id"] != "m1" {
		t.Fatalf("update result: %v", rows)
	}
	if err := db.Update("movies", "ghost", func(r Row) Row { return r }); !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("update missing: %v", err)
	}
}

func TestDeleteAndCount(t *testing.T) {
	db := newMovieDB(t)
	db.Insert("movies", Row{"id": "m1", "genre": "g"}) //nolint:errcheck
	n, _ := db.Count("movies")
	if n != 1 {
		t.Fatalf("Count = %d", n)
	}
	existed, err := db.Delete("movies", "m1")
	if err != nil || !existed {
		t.Fatalf("Delete = %v, %v", existed, err)
	}
	if rows, _ := db.Select("movies", "genre", "g", 0); len(rows) != 0 {
		t.Fatal("index kept deleted row")
	}
	existed, _ = db.Delete("movies", "m1")
	if existed {
		t.Fatal("double delete")
	}
}

func TestScanPaging(t *testing.T) {
	db := newMovieDB(t)
	for i := 0; i < 10; i++ {
		db.Insert("movies", Row{"id": fmt.Sprintf("m%02d", i)}) //nolint:errcheck
	}
	page1, err := db.Scan("movies", "", 4)
	if err != nil || len(page1) != 4 || page1[0]["id"] != "m00" {
		t.Fatalf("page1 = %v, %v", page1, err)
	}
	page2, _ := db.Scan("movies", page1[3]["id"], 4)
	if len(page2) != 4 || page2[0]["id"] != "m04" {
		t.Fatalf("page2 = %v", page2)
	}
	page3, _ := db.Scan("movies", page2[3]["id"], 4)
	if len(page3) != 2 {
		t.Fatalf("page3 = %v", page3)
	}
}

// Property: Select over the indexed column always agrees with a full scan.
func TestIndexAgreesWithScanProperty(t *testing.T) {
	type op struct {
		Del   bool
		ID    uint8
		Genre uint8
	}
	f := func(ops []op) bool {
		db := NewDB()
		db.CreateTable(movieSchema()) //nolint:errcheck
		live := map[string]string{}
		for _, o := range ops {
			id := fmt.Sprintf("m%d", o.ID%32)
			if o.Del {
				db.Delete("movies", id) //nolint:errcheck
				delete(live, id)
				continue
			}
			g := fmt.Sprintf("g%d", o.Genre%3)
			if _, exists := live[id]; exists {
				db.Update("movies", id, func(r Row) Row { r["genre"] = g; return r }) //nolint:errcheck
			} else if db.Insert("movies", Row{"id": id, "genre": g}) != nil {
				return false
			}
			live[id] = g
		}
		for gi := 0; gi < 3; gi++ {
			g := fmt.Sprintf("g%d", gi)
			rows, err := db.Select("movies", "genre", g, 0)
			if err != nil {
				return false
			}
			want := 0
			for _, lg := range live {
				if lg == g {
					want++
				}
			}
			if len(rows) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentInsertSelect(t *testing.T) {
	db := newMovieDB(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				db.Insert("movies", Row{"id": fmt.Sprintf("g%d-m%d", g, i), "genre": "x"}) //nolint:errcheck
				db.Select("movies", "genre", "x", 5)                                       //nolint:errcheck
			}
		}(g)
	}
	wg.Wait()
	n, _ := db.Count("movies")
	if n != 8*300 {
		t.Fatalf("Count = %d", n)
	}
}

func BenchmarkInsert(b *testing.B) {
	db := NewDB()
	db.CreateTable(movieSchema()) //nolint:errcheck
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Insert("movies", Row{"id": fmt.Sprintf("m%d", i), "genre": fmt.Sprintf("g%d", i%8)}) //nolint:errcheck
	}
}

func BenchmarkSelectIndexed(b *testing.B) {
	db := NewDB()
	db.CreateTable(movieSchema()) //nolint:errcheck
	for i := 0; i < 10000; i++ {
		db.Insert("movies", Row{"id": fmt.Sprintf("m%d", i), "genre": fmt.Sprintf("g%d", i%100)}) //nolint:errcheck
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Select("movies", "genre", fmt.Sprintf("g%d", i%100), 10) //nolint:errcheck
	}
}
