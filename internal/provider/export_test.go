package provider

import (
	"context"

	"repro/internal/rowset"
)

// Context-free execution shims, compiled only into the test binary. The
// production surface is Session's context-first methods; tests exercising
// statement behavior rather than sessions or cancellation keep the short
// spelling, each call on a session of its own (so nothing a session scopes —
// prepared statements, admission — carries from one call to the next).

func (p *Provider) Execute(command string) (*rowset.Rowset, error) {
	s := p.NewSession()
	defer s.Close()
	return s.Execute(context.Background(), command)
}

func (p *Provider) ExecuteScript(script string) (*rowset.Rowset, error) {
	s := p.NewSession()
	defer s.Close()
	return s.ExecuteScript(context.Background(), script)
}
