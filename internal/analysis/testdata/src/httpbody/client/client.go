// Package client is the httpbody golden package: every *http.Response
// acquired in a function has its Body closed by a defer right after the
// error check.
package client

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Flagged: the body is never closed at all.
func NeverClosed(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url) // want "response resp is not released by a defer right after its acquisition"
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// Flagged: closed on the happy path but leaked on the early return.
func LeakOnEarlyReturn(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url) // want "response resp is not released by a defer right after its acquisition"
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return data, err
}

// Flagged: closed in only one switch arm.
func LeakInSwitch(c *http.Client, url string) error {
	resp, err := c.Get(url) // want "response resp is not released by a defer right after its acquisition"
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		resp.Body.Close()
		return nil
	case http.StatusNotFound:
		return fmt.Errorf("not found")
	}
	return nil
}

// Flagged: each iteration acquires a response the body never closes.
func LeakInLoop(c *http.Client, urls []string) int {
	n := 0
	for _, u := range urls {
		resp, err := c.Get(u) // want "response resp is acquired in a loop body"
		if err != nil {
			continue
		}
		n += resp.StatusCode
	}
	return n
}

// Flagged: the response is thrown away with its connection.
func Discarded(c *http.Client, url string) error {
	_, err := c.Get(url) // want "response handle is discarded"
	return err
}

// Flagged: acquired in an if init.
func AcquiredInIfInit(c *http.Client, url string) int {
	if resp, err := c.Get(url); err == nil { // want "response is acquired inside another statement"
		defer resp.Body.Close()
		return resp.StatusCode
	}
	return 0
}

// Flagged: acquired as a call argument.
func AcquiredAsArgument(c *http.Client, url string) int {
	return status(c.Get(url)) // want "response is acquired inside another statement"
}

// Clean: the canonical idiom — error check, then defer Close.
func DeferAfterErrCheck(c *http.Client, req *http.Request) (int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

// Clean: Close inside a deferred closure.
func DeferredClosure(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer func() {
		_ = resp.Body.Close()
	}()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Flagged: closed explicitly on every path, which only path reasoning
// can confirm.
func ClosedOnAllPaths(c *http.Client, url string, out any) error {
	resp, err := c.Get(url) // want "response resp is not released by a defer right after its acquisition"
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	resp.Body.Close()
	return err
}

// Flagged: the inverted guard — the response only exists when
// err == nil, and its defer sits inside the branch.
func InvertedGuard(c *http.Client, url string) int {
	resp, err := c.Get(url) // want "response resp is not released by a defer right after its acquisition"
	if err == nil {
		defer resp.Body.Close()
		return resp.StatusCode
	}
	return 0
}

// Flagged: the response escapes to the caller, an obligation the rule
// cannot follow; return the decoded body instead.
func Escapes(c *http.Client, url string) (*http.Response, error) {
	resp, err := c.Get(url) // want "response resp is not released by a defer right after its acquisition"
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Flagged: closed in a loop before the iteration ends.
func ClosedInLoop(c *http.Client, urls []string) int {
	n := 0
	for _, u := range urls {
		resp, err := c.Get(u) // want "response resp is acquired in a loop body"
		if err != nil {
			continue
		}
		n += resp.StatusCode
		resp.Body.Close()
	}
	return n
}

// Clean: a deliberate exception, suppressed with a justification.
func Allowed(c *http.Client, url string) int {
	//lint:allow httpbody the process exits immediately after this probe
	resp, err := c.Get(url)
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

// Clean: a response acquired per iteration in a function of its own,
// closed by that function's defer.
func DeferPerIteration(c *http.Client, urls []string) int {
	n := 0
	for _, u := range urls {
		n += fetchStatus(c, u)
	}
	return n
}

func fetchStatus(c *http.Client, url string) int {
	resp, err := c.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

func status(resp *http.Response, err error) int {
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	return resp.StatusCode
}
