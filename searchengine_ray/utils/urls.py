"""URL canonicalization, hashing and validity.

Semantics match the reference (cited file:line refer to /root/reference):

- ``get_urlhash``: sha256 over ``netloc/path/params/query/fragment`` — scheme
  deliberately excluded (``utils/__init__.py:25-30``).  This hash is both the
  exact-dedup identity and the frontier partition key.
- ``normalize``: strip ONE trailing slash (``utils/__init__.py:32-35``).
- ``is_valid``: the module ``scraper.py`` is missing from the snapshot; the
  behavior is specified at ``README.md:113-114, 209-213`` — drop non-http(s)
  schemes, non-target-domain hosts, and binary/static-resource extensions
  (pdf/ppt/css/js/…).  The extension list below is the canonical UCI
  assignment list that the README references.
- ``parse_url``: 8-field projection (``link_similarity.py:15-26``).

All functions are pure and per-string; batch (Arrow) wrappers live in
``searchengine_ray.stages.canonicalize``.
"""

from __future__ import annotations

import re
from hashlib import sha256
from urllib.parse import urldefrag, urljoin, urlparse

# Binary / static-resource extensions to exclude, per README.md:209-211
# ("PDFs, PPTs, css, js, etc.") — the canonical is_valid extension regex.
_INVALID_EXT_RE = re.compile(
    r".*\.(css|js|bmp|gif|jpe?g|ico"
    r"|png|tiff?|mid|mp2|mp3|mp4"
    r"|wav|avi|mov|mpeg|ram|m4v|mkv|ogg|ogv|pdf"
    r"|ps|eps|tex|ppt|pptx|doc|docx|xls|xlsx|names"
    r"|data|dat|exe|bz2|tar|msi|bin|7z|psd|dmg|iso"
    r"|epub|dll|cnf|tgz|sha1"
    r"|thmx|mso|arff|rtf|jar|csv"
    r"|rm|smil|wmv|swf|wma|zip|rar|gz)$",
    re.IGNORECASE,
)


def parse_url(url: str) -> dict:
    """urlparse → 8-field dict (reference link_similarity.py:15-26)."""
    p = urlparse(url)
    return {
        "scheme": p.scheme,
        "netloc": p.netloc,
        "path": p.path,
        "params": p.params,
        "query": p.query,
        "fragment": p.fragment,
        "hostname": p.hostname,
        "port": p.port,
    }


def normalize(url: str) -> str:
    """Strip one trailing slash (reference utils/__init__.py:32-35)."""
    if url.endswith("/"):
        return url.rstrip("/")
    return url


def get_urlhash(url: str) -> str:
    """sha256 hex over netloc/path/params/query/fragment — scheme excluded
    (reference utils/__init__.py:25-30).  http vs https of the same resource
    hash identically."""
    return _parsed_hash(urlparse(url))


def _parsed_hash(p) -> str:
    return sha256(
        f"{p.netloc}/{p.path}/{p.params}/{p.query}/{p.fragment}".encode("utf-8")
    ).hexdigest()


def urldefrag_str(url: str) -> str:
    """Drop the fragment (reference scraper spec README.md:104-111;
    ``urldefrag`` import at link_similarity.py:7)."""
    return urldefrag(url)[0]


def join_url(base: str, link: str) -> str:
    """Resolve a possibly-relative outlink against its page URL."""
    return urljoin(base, link)


def is_valid(url: str, allowed_domains: tuple[str, ...] | None = None) -> bool:
    """Validity predicate per README.md:113-114, 209-213.

    - scheme must be http/https
    - host must end with one of ``allowed_domains`` (when given) — the
      reference crawl is restricted to ``ics.uci.edu`` (README.md:212)
    - path must not end in a binary/static extension
    """
    try:
        p = urlparse(url)
    except ValueError:
        return False
    return _parsed_valid(p, allowed_domains)


def valid_urlhash(url: str, allowed_domains: tuple[str, ...] | None = None
                  ) -> str | None:
    """``get_urlhash(url)`` when ``is_valid(url, allowed_domains)``, else
    None — both from ONE ``urlparse``."""
    try:
        p = urlparse(url)
    except ValueError:
        return None
    return _parsed_hash(p) if _parsed_valid(p, allowed_domains) else None


def _parsed_valid(p, allowed_domains) -> bool:
    if p.scheme not in ("http", "https"):
        return False
    host = p.hostname or ""
    if allowed_domains is not None:
        if not any(host == d or host.endswith("." + d) for d in allowed_domains):
            return False
    if _INVALID_EXT_RE.match(p.path.lower()):
        return False
    return True
