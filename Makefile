# Standard-library-only Go module; no codegen, no vendoring.

.PHONY: all build test race vet fmt ci bench bench-e2e

all: build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...
	go run ./cmd/repolint
	go run ./cmd/graql -vet examples/*.graql

fmt:
	gofmt -l -w .

ci:
	sh ci.sh

bench:
	go test -bench=. -benchmem

bench-e2e:
	bash bench/run.sh
