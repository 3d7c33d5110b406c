package cloud

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
)

// Bulk operations on the HTTP client.

// BatchCreate posts one bulk request.
func (c *Client) BatchCreate(ctx context.Context, reqs []CreateRequest) ([]BatchResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	body := wireBatchCreate{Items: make([]wireBatchCreateItem, len(reqs))}
	for i, req := range reqs {
		body.Items[i] = wireBatchCreateItem{
			Type:           req.Type,
			Region:         req.Region,
			Attrs:          attrsToWire(req.Attrs),
			Principal:      req.Principal,
			IdempotencyKey: req.IdempotencyKey,
		}
	}
	var out wireBatchResults
	if err := c.do(ctx, http.MethodPost, "/v1/batch/create", body, &out); err != nil {
		return nil, err
	}
	return fromWireBatchResults(out), nil
}

// BatchGet posts one bulk read.
func (c *Client) BatchGet(ctx context.Context, keys []ResourceKey) ([]BatchResult, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	var out wireBatchResults
	if err := c.do(ctx, http.MethodPost, "/v1/batch/get", wireBatchGet{Keys: keys}, &out); err != nil {
		return nil, err
	}
	return fromWireBatchResults(out), nil
}

// ListPage requests one page; limit 0 asks for the whole listing.
func (c *Client) ListPage(ctx context.Context, typ, region string, limit int, pageToken string) (*ListPageResult, error) {
	q := url.Values{}
	if region != "" {
		q.Set("region", region)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if pageToken != "" {
		q.Set("page_token", pageToken)
	}
	path := "/v1/resources/" + url.PathEscape(typ)
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page wireListPage
	if err := c.do(ctx, http.MethodGet, path, nil, &page); err != nil {
		return nil, err
	}
	out := &ListPageResult{
		Resources:     make([]*Resource, len(page.Resources)),
		NextPageToken: page.NextPageToken,
	}
	for i, w := range page.Resources {
		out.Resources[i] = fromWire(w)
	}
	return out, nil
}
