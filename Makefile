GO ?= go

.PHONY: all build test check bench figs

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pre-merge gate: vet + build + race-enabled tests.
check:
	./scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem ./...

figs:
	$(GO) run ./cmd/paperfigs -out results
