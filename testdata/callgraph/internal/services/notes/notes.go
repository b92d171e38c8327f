// Package notes is the state census's fixture app: a store, a cache and a
// broker tier, and one of each kind of write and read the census tells
// apart. Two pieces of its state have no reader: a note's color and the
// cache's seen: entries.
package notes

import (
	"context"

	"cgfixture/internal/core"
	"cgfixture/internal/docstore"
	"cgfixture/internal/mq"
	"cgfixture/internal/svcutil"
)

// Notes is a running deployment's clients, held in fields the census
// follows from the wiring.
type Notes struct {
	db  svcutil.DB
	mc  svcutil.KV
	bus mq.Bus
}

// New boots the notes tiers.
func New(app *core.App) (*Notes, error) {
	st := &svcutil.Stack{App: app, Prefix: "notes."}
	if err := st.StartStores("db"); err != nil {
		return nil, err
	}
	if err := st.StartCaches("mc"); err != nil {
		return nil, err
	}
	st.StartBroker("broker")
	return &Notes{db: st.DB("client", "db"), mc: st.KV("client", "mc"), bus: st.MQ("client", "broker")}, nil
}

// Save writes a note: fields nobody reads (color), reads after a Get (size)
// and Finds (owner); a preferences map read whole; a tag under a name the
// caller picks beside one (pinned) only a Find of that name reads; a count
// only AddNum's sum reads; two cache entries; and a published message.
func (n *Notes) Save(ctx context.Context, id, owner, tag string) error {
	if err := n.db.Put(ctx, "notes", docstore.Doc{ID: id, Fields: map[string]string{"color": "red", "size": "9", "owner": owner}}); err != nil {
		return err
	}
	if err := n.db.Put(ctx, "prefs", docstore.Doc{ID: id, Fields: map[string]string{"theme": "dark"}}); err != nil {
		return err
	}
	if err := n.db.Put(ctx, "tags", docstore.Doc{ID: id, Fields: map[string]string{tag: "1", "pinned": "1"}}); err != nil {
		return err
	}
	if err := n.mc.Set(ctx, "seen:"+id, nil); err != nil {
		return err
	}
	if err := n.mc.Set(ctx, "note:"+id, nil); err != nil {
		return err
	}
	return n.bus.Publish(ctx, "saved", []byte(id))
}

// Load reads what Save wrote.
func (n *Notes) Load(ctx context.Context, id, tag string) (int, error) {
	doc, _, err := n.db.Get(ctx, "notes", id)
	if err != nil {
		return 0, err
	}
	mine, err := n.db.Find(ctx, "notes", "owner", id)
	if err != nil {
		return 0, err
	}
	prefs, _, err := n.db.Get(ctx, "prefs", id)
	if err != nil {
		return 0, err
	}
	all := prefs.Fields
	tagged, err := n.db.Find(ctx, "tags", tag, "1")
	if err != nil {
		return 0, err
	}
	views, err := n.db.AddNum(ctx, "notes", id, "views", 1)
	if err != nil {
		return 0, err
	}
	if _, err := n.mc.Get(ctx, "note:"+id); err != nil {
		return 0, err
	}
	if _, err := n.bus.Consume(ctx, "saved"); err != nil {
		return 0, err
	}
	return len(doc.Fields["size"]) + len(mine) + len(all) + len(tagged) + int(views), nil
}
