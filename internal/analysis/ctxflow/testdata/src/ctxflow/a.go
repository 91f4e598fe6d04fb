// Package ctxflow is analyzer testdata: functions holding a ctx must
// pass it on — no context.Background()/TODO(), no ctx-less twin calls
// when a ...Context or ...Ctx variant exists.
package ctxflow

import "context"

// DB has a method twin pair: Query drops the ctx, QueryContext
// carries it.
type DB struct{}

func (DB) Query(q string) error                             { return nil }
func (DB) QueryContext(ctx context.Context, q string) error { return nil }

// Fetch / FetchContext are a package-level twin pair.
func Fetch(url string) error                             { return nil }
func FetchContext(ctx context.Context, url string) error { return nil }

// Scan / ScanCtx and Store.Fill / Store.FillCtx spell the twin the way
// the internal layers do.
func Scan(n int) error                         { return nil }
func ScanCtx(ctx context.Context, n int) error { return nil }

type Store struct{}

func (*Store) Fill(n int) error                         { return nil }
func (*Store) FillCtx(ctx context.Context, n int) error { return nil }

// Probe has a sibling named ProbeCtx that takes no context, so it is
// not a twin.
func Probe(n int) error    { return nil }
func ProbeCtx(n int) error { return nil }

// Lone has no ...Context sibling, so calling it is fine anywhere.
func Lone(s string) error { return nil }

func bad(ctx context.Context, db DB) error {
	return db.Query("select 1") // want `calling Query drops the in-scope ctx`
}

func badFunc(ctx context.Context) error {
	return Fetch("http://a") // want `calling Fetch drops the in-scope ctx`
}

func badCtxFunc(ctx context.Context) error {
	return Scan(1) // want `calling Scan drops the in-scope ctx: call ScanCtx`
}

func badCtxMethod(ctx context.Context, s *Store) error {
	return s.Fill(1) // want `calling Fill drops the in-scope ctx: call FillCtx`
}

func badBackground(ctx context.Context, db DB) error {
	return db.QueryContext(context.Background(), "select 1") // want `context.Background\(\) while a ctx is in scope`
}

func badTODO(ctx context.Context) error {
	return FetchContext(context.TODO(), "http://a") // want `context.TODO\(\) while a ctx is in scope`
}

func badClosure(ctx context.Context) func() error {
	return func() error {
		return Fetch("http://a") // want `calling Fetch drops the in-scope ctx`
	}
}

func good(ctx context.Context, db DB) error {
	if err := db.QueryContext(ctx, "select 1"); err != nil {
		return err
	}
	return FetchContext(ctx, "http://a")
}

func goodCtx(ctx context.Context, s *Store) error {
	if err := ScanCtx(ctx, 1); err != nil {
		return err
	}
	if err := Probe(1); err != nil {
		return err
	}
	return s.FillCtx(ctx, 1)
}

func goodDerived(ctx context.Context) error {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	return FetchContext(sub, "http://a")
}

func goodLone(ctx context.Context) error {
	return Lone("x")
}

// goodNoCtx holds no ctx, so twin calls and fresh contexts are its
// caller's problem, not ctxflow's.
func goodNoCtx(db DB) error {
	if err := db.Query("select 1"); err != nil {
		return err
	}
	return FetchContext(context.Background(), "http://a")
}

func allowedDetach(ctx context.Context) error {
	//apsslint:allow ctxflow background reaper must outlive the request ctx
	return FetchContext(context.Background(), "http://a")
}
