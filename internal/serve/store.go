package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/blob"
)

// HTTPStore is the blob.ObjectStore client for a daemon's /store
// endpoints (the handlers are in server.go): the off-machine leg of the
// store checkpoint transport. It is a thin wire adapter — retry/backoff policy belongs to the caller (the store
// transport wraps every operation in capped jittered retries).
type HTTPStore struct {
	// Base is the daemon's base URL (http://host:port).
	Base string
	// Client overrides the HTTP client (nil = http.DefaultClient).
	Client *http.Client
}

func (s *HTTPStore) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return http.DefaultClient
}

func (s *HTTPStore) do(method, key string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, s.Base+"/store/"+key, body)
	if err != nil {
		return nil, err
	}
	return s.client().Do(req)
}

// Put implements blob.ObjectStore.
func (s *HTTPStore) Put(key string, data []byte) error {
	resp, err := s.do(http.MethodPut, key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("serve: store put %s: %s", key, httpErrorBody(resp))
	}
	return nil
}

// Get implements blob.ObjectStore.
func (s *HTTPStore) Get(key string) ([]byte, error) {
	resp, err := s.do(http.MethodGet, key, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, blob.ErrNoObject
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: store get %s: %s", key, httpErrorBody(resp))
	}
	return io.ReadAll(resp.Body)
}

// List implements blob.ObjectStore.
func (s *HTTPStore) List(prefix string) ([]string, error) {
	resp, err := s.client().Get(s.Base + "/storelist?prefix=" + url.QueryEscape(prefix))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: store list: %s", httpErrorBody(resp))
	}
	var keys []string
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		return nil, fmt.Errorf("serve: store list: %w", err)
	}
	return keys, nil
}

// Delete implements blob.ObjectStore.
func (s *HTTPStore) Delete(key string) error {
	resp, err := s.do(http.MethodDelete, key, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("serve: store delete %s: %s", key, httpErrorBody(resp))
	}
	return nil
}

// httpErrorBody renders a non-OK response for an error message.
func httpErrorBody(resp *http.Response) string {
	buf, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(buf)))
}
