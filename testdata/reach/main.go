// Command fixture is the reachability census's self-test module: its one
// internal package holds each kind of declaration the census must judge.
package main

import (
	"flag"
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var cfg lib.Config
	flag.IntVar(&cfg.Size, "size", 1, "the only write to Config.Size")
	cfg = lib.Normalize(cfg)
	pair := lib.PairConfig{1, 2}
	fmt.Println(lib.Describe(lib.Named{}), lib.Box[int]{}.Get(), cfg, pair, lib.NewCounter().Hit())
}
