"""Incremental GitHub REST v3 exporter producing canonical corpus files.

The export of one repository runs the phases of ENDPOINTS in order: the
repository object, the paginated list endpoints of LISTS (pulls, issue
comments, review comments, commits), then one profile per author for
follower counts.  One loop, _stage, sends every request: it appends each
response to raw_<phase>.jsonl and marks it in fetch_cursor.json with the
file's new size.  A resume cuts off an append that a crash tore and never
sends a marked request again; a cursor from other job parameters or other
phases starts over.  Finalization deduplicates by natural key, so items that
shift between pages cannot produce duplicate pull numbers.

Requests are strictly sequential (one in flight per repository).  A 403
with an exhausted rate-limit header sleeps until the advertised reset; a
404 is fatal; timeouts and 5xx responses retry up to a cap.  Authentication
comes exclusively from an environment variable named by the job, never from
a flag value, so tokens stay out of process listings and shell history.

Comment roles are derived at export time with the corpus rule: the PR
author is the contributor; whoever merged or closed the PR, or holds an
owner or member association, is an integrator; review-comment authors are
reviewers (review submissions without inline comments are not fetched,
which keeps the request budget linear in pages); everyone else is other.

Context fields that a single-repository export cannot observe (languages
across repositories, follow relations, social tie strength) are written as
neutral defaults.  The REST pull object has no reopen count, so
reopen_count reads 0 unless a payload carries it.  The report lists both
kinds, so downstream screening can judge them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from datetime import datetime
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

from . import corpus as corpus_mod

API_BASE = "https://api.github.com"

DEFAULTED_CONTEXT_FIELDS = (
    "num_languages",
    "contrib_follow_integrator",
    "social_strength",
)

# Each list endpoint: its path under /repos/{owner}/{name}, its query, and
# whether it takes the job's since.
LISTS = {
    "pulls": ("/pulls", {"state": "all", "sort": "created", "direction": "asc"}, False),
    "issue_comments": ("/issues/comments", {"sort": "created", "direction": "asc"}, True),
    "review_comments": ("/pulls/comments", {"sort": "created", "direction": "asc"}, True),
    "commits": ("/commits", {}, True),
}
# The export's phases in request order.
ENDPOINTS = ("repo", *LISTS, "users")


class FetchError(Exception):
    """Unrecoverable export failure."""


class RepoNotFoundError(FetchError):
    """The repository does not exist or is not visible with this token."""


@dataclass(frozen=True)
class FetchJob:
    repo_full_name: str
    output_dir: str | Path
    since: str | None = None  # RFC 3339; limits comments and commits
    auth_token_source: str = "GITHUB_TOKEN"
    page_size: int = 100
    max_retries: int = 3

    def __post_init__(self) -> None:
        if "/" not in self.repo_full_name:
            raise ValueError(f"repo_full_name must be owner/name, got {self.repo_full_name!r}")
        if not 1 <= self.page_size <= 100:
            raise ValueError(f"page_size must be in [1, 100], got {self.page_size}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass
class FetchReport:
    repo_full_name: str
    pulls: int = 0
    comments: int = 0
    commits: int = 0
    contributors: int = 0
    requests_made: int = 0
    rate_limit_waits: int = 0
    retries: int = 0
    resumed: bool = False
    defaulted_context_fields: tuple[str, ...] = DEFAULTED_CONTEXT_FIELDS
    defaulted_pull_fields: tuple[str, ...] = ("reopen_count",)  # the REST pull has no such field

    def to_json(self) -> dict:
        return asdict(self)


class GitHubFetcher:
    """Sequential paginated exporter.

    session only needs a requests-compatible ``get``; tests inject fakes.
    sleep and now are injectable for rate-limit handling without real waits.
    """

    def __init__(
        self,
        session=None,
        base_url: str = API_BASE,
        sleep: Callable[[float], None] = time.sleep,
        now: Callable[[], float] = time.time,
        timeout: float = 30.0,
    ):
        if session is None:
            import requests  # only fetch needs it, so other commands start without it
            session = requests.Session()
        self.session = session
        self.base_url = base_url.rstrip("/")
        self.sleep = sleep
        self.now = now
        self.timeout = timeout

    # -- low-level request handling -------------------------------------

    def _get(self, report: FetchReport, job: FetchJob, path: str, params: Mapping | None = None):
        import requests

        headers = {"Accept": "application/vnd.github+json"}
        token = os.environ.get(job.auth_token_source, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        url = self.base_url + path
        attempts = 0
        while True:
            report.requests_made += 1
            try:
                response = self.session.get(url, params=dict(params or {}), headers=headers, timeout=self.timeout)
            except (requests.Timeout, requests.ConnectionError, TimeoutError, ConnectionError) as exc:
                failure = f"failed after {job.max_retries} retries: {exc}"
            else:
                status = response.status_code
                if status == 404:
                    raise RepoNotFoundError(f"{job.repo_full_name}: GET {path} returned 404")
                if status == 403:
                    remaining = response.headers.get("X-RateLimit-Remaining")
                    reset = response.headers.get("X-RateLimit-Reset")
                    retry_after = response.headers.get("Retry-After")
                    if remaining == "0" and reset is not None:
                        # Primary limit: sleep until the advertised reset, then retry.
                        report.rate_limit_waits += 1
                        self.sleep(max(float(reset) - self.now(), 0.0) + 1.0)
                        continue
                    if retry_after is not None:
                        report.rate_limit_waits += 1
                        self.sleep(float(retry_after))
                        continue
                    raise FetchError(f"GET {path} returned 403 without rate-limit headers")
                if status < 400:
                    return response
                if status < 500:
                    raise FetchError(f"GET {path} returned {status}")
                failure = f"kept failing with {status}"
            # A timeout or a 5xx response: back off and retry, up to the cap.
            attempts += 1
            report.retries += 1
            if attempts > job.max_retries:
                raise FetchError(f"GET {path} {failure}")
            self.sleep(min(2.0**attempts, 30.0))

    # -- cursor and staging ----------------------------------------------

    @staticmethod
    def _cursor_path(out: Path) -> Path:
        return out / "fetch_cursor.json"

    @staticmethod
    def _staging_path(out: Path, endpoint: str) -> Path:
        return out / f"raw_{endpoint}.jsonl"

    def _fresh_cursor(self, job: FetchJob) -> dict:
        return {
            "repo_full_name": job.repo_full_name,
            "since": job.since,
            "page_size": job.page_size,
            "endpoints": {name: {"next": 1, "size": 0, "done": False} for name in ENDPOINTS},
            "complete": False,
        }

    def _load_cursor(self, job: FetchJob, out: Path) -> tuple[dict, bool]:
        path = self._cursor_path(out)
        if path.is_file():
            try:
                cursor = json.loads(path.read_text("utf-8"))
            except json.JSONDecodeError:
                cursor = None
            if (
                isinstance(cursor, dict)
                and cursor.get("repo_full_name") == job.repo_full_name
                and cursor.get("since") == job.since
                and cursor.get("page_size") == job.page_size
                and set(cursor.get("endpoints", ())) == set(ENDPOINTS)
            ):
                return cursor, True
        # Parameters or phases changed, or no usable cursor: start over.
        for endpoint in ENDPOINTS:
            self._staging_path(out, endpoint).unlink(missing_ok=True)
        return self._fresh_cursor(job), False

    def _save_cursor(self, out: Path, cursor: dict) -> None:
        path = self._cursor_path(out)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(cursor, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, path)

    def _stage(self, report: FetchReport, job: FetchJob, out: Path, cursor: dict,
               phase: str, paths: list[str], query: Mapping | None = None) -> list[dict]:
        """Send the phase's requests that the cursor has not marked; return its staged items.

        With a query, the phase pages through the list at paths[0]; without
        one, it stages the object at each of paths as {"path", "body"}.  The
        cursor marks each response with the staging file's new size, so a
        resume first cuts off an append that a crash tore.
        """
        state = cursor["endpoints"][phase]
        paged = query is not None
        with open(self._staging_path(out, phase), "ab") as handle:
            if handle.tell() < state["size"]:  # marked responses were lost: stage them again
                state.update(next=1, size=0, done=False)
            handle.truncate(state["size"])
            while not state["done"] and (paged or state["next"] <= len(paths)):
                step = state["next"]
                path = paths[0] if paged else paths[step - 1]
                params = {**query, "per_page": job.page_size, "page": step} if paged else {}
                body = self._get(report, job, path, params).json()
                if paged and not isinstance(body, list):
                    raise FetchError(f"GET {path} page {step}: expected a JSON array")
                if not paged and not isinstance(body, dict):
                    raise FetchError(f"GET {path}: expected a JSON object")
                for item in body if paged else [{"path": path, "body": body}]:
                    handle.write(json.dumps(item, separators=(",", ":")).encode() + b"\n")
                # The bytes reach the file before the cursor counts them.
                handle.flush()
                state.update(
                    next=step + 1,
                    size=handle.tell(),
                    done=len(body) < job.page_size if paged else step == len(paths),
                )
                self._save_cursor(out, cursor)
        return self._read_staging(out, phase)

    def _read_staging(self, out: Path, endpoint: str) -> list[dict]:
        path = self._staging_path(out, endpoint)
        # Items can shift between pages while pagination runs, so one can be
        # staged twice; dedupe on the natural key (or the raw line).
        items = []
        seen = set()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                item = json.loads(line)
                key = item.get("id") or item.get("sha") or line.strip()
                if key in seen:
                    continue
                seen.add(key)
                items.append(item)
        return items

    # -- assembly ----------------------------------------------------------

    @staticmethod
    def _issue_number(item: Mapping) -> int | None:
        for key in ("issue_url", "pull_request_url"):
            url = item.get(key)
            if isinstance(url, str) and url.rsplit("/", 1)[-1].isdigit():
                return int(url.rsplit("/", 1)[-1])
        return None

    @staticmethod
    def _login(item: Mapping, key: str = "user") -> str | None:
        user = item.get(key)
        if isinstance(user, Mapping) and isinstance(user.get("login"), str):
            return user["login"]
        return None

    @staticmethod
    def _timestamp(value, where: str):
        """An API timestamp as a UTC datetime; a missing or malformed one stops the export."""
        if value is None:
            raise FetchError(f"{where}: missing timestamp")
        try:
            return corpus_mod.parse_timestamp(value)
        except ValueError as exc:
            raise FetchError(f"{where}: {exc}") from None

    @staticmethod
    def _count(value, where: str) -> int:
        """An API count: absent or null reads 0; anything but an integer >= 0 stops the export."""
        if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 0):
            raise FetchError(f"{where}: expected an integer >= 0, got {value!r}")
        return value or 0

    def fetch_repository(self, job: FetchJob) -> FetchReport:
        out = Path(job.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        report = FetchReport(repo_full_name=job.repo_full_name)

        cursor, report.resumed = self._load_cursor(job, out)
        finished = cursor.get("complete")
        if finished:
            # Identical job already finished: validate the artifacts; fetch nothing.
            exported = corpus_mod.load_corpus(out)
            if exported.errors:
                raise FetchError(f"existing output in {out} fails validation")
        else:
            exported = self._export(job, out, cursor, report)
        counts = exported.corpus.counts()
        report.pulls = counts["pulls"]
        report.comments = counts["comments"]
        report.commits = counts["commits"]
        report.contributors = counts["contexts"]
        if not finished:
            corpus_mod.write_json(out / "fetch_report.json", report.to_json())
        return report

    def _export(self, job: FetchJob, out: Path, cursor: dict, report: FetchReport) -> corpus_mod.LoadResult:
        """Fetch what the cursor has not marked done, then write and validate the corpus."""
        repo_path = f"/repos/{job.repo_full_name}"
        stage = partial(self._stage, report, job, out, cursor)
        (meta,) = stage("repo", [repo_path])
        since = {"since": job.since} if job.since else {}
        lists = {
            name: stage(name, [repo_path + suffix], {**query, **(since if takes_since else {})})
            for name, (suffix, query, takes_since) in LISTS.items()
        }

        def profiles(authors: list[str]) -> dict[str, Mapping]:
            staged = stage("users", [f"/users/{login}" for login in authors])
            return {item["path"].removeprefix("/users/"): item["body"] for item in staged}

        corpus = self._assemble(job, meta["body"], lists, profiles)
        corpus_mod.save_corpus(corpus, out)

        validation = corpus_mod.load_corpus(out)
        if validation.errors:
            detail = "; ".join(f"{e.file}:{e.line} {e.message}" for e in validation.errors[:5])
            raise FetchError(f"exported corpus failed validation: {detail}")

        cursor["complete"] = True
        self._save_cursor(out, cursor)
        for endpoint in ENDPOINTS:
            self._staging_path(out, endpoint).unlink(missing_ok=True)
        return validation

    def _assemble(self, job: FetchJob, meta: Mapping, lists: Mapping[str, list[dict]],
                  profiles: Callable[[list[str]], Mapping[str, Mapping]]) -> corpus_mod.Corpus:
        """Build the corpus from the staged items; profiles(authors) stages the users phase."""
        repo = job.repo_full_name
        raw_pulls = {p["number"]: p for p in lists["pulls"] if "number" in p}
        issue_comments, review_comments = lists["issue_comments"], lists["review_comments"]

        members = {
            login
            for item in issue_comments + review_comments
            if (login := self._login(item)) is not None
            and item.get("author_association") in ("OWNER", "MEMBER")
        }
        reviewers_by_pr: dict[int, set[str]] = {}
        for item in review_comments:
            number = self._issue_number(item)
            login = self._login(item)
            if number is not None and login is not None:
                reviewers_by_pr.setdefault(number, set()).add(login)

        comments_by_pr: dict[int, list[tuple[str, str, datetime]]] = {}
        for endpoint, items in (
            ("issue_comments", issue_comments),
            ("review_comments", review_comments),
        ):
            for item in items:
                number = self._issue_number(item)
                login = self._login(item)
                created = item.get("created_at")
                if number is None or login is None or number not in raw_pulls or not created:
                    continue
                where = f"{endpoint} item {item.get('id')}"
                body = item.get("body") or ""
                if not isinstance(body, str):
                    raise FetchError(f"{where}: body must be a string, got {type(body).__name__}")
                comments_by_pr.setdefault(number, []).append(
                    (login, body, self._timestamp(created, f"{where} created_at"))
                )

        pulls = []
        for number in sorted(raw_pulls):
            item = raw_pulls[number]
            author = self._login(item) or "ghost"
            merged_by = self._login(item, "merged_by")
            integrators = set(members)
            if merged_by:
                integrators.add(merged_by)
            comments = []
            for login, body, created in comments_by_pr.get(number, []):
                role = corpus_mod.derive_comment_role(
                    login, author, integrators, reviewers_by_pr.get(number, set())
                )
                comments.append(
                    corpus_mod.CommentRecord(
                        author=login,
                        role=role,
                        body=body,
                        created_at=created,
                    )
                )
            merged = bool(item.get("merged_at"))
            closed_at = item.get("closed_at")
            pulls.append(
                corpus_mod.PullRequestRecord(
                    repo_full_name=repo,
                    pr_number=number,
                    author=author,
                    created_at=self._timestamp(
                        item.get("created_at"), f"pulls item #{number} created_at"
                    ),
                    merged=merged,
                    closed_at=None
                    if closed_at is None
                    else self._timestamp(closed_at, f"pulls item #{number} closed_at"),
                    reopen_count=self._count(
                        item.get("reopen_count"), f"pulls item #{number} reopen_count"
                    ),
                    comments=tuple(sorted(comments, key=lambda c: c.created_at)),
                )
            )

        commits = []
        commit_authors: dict[str, int] = {}
        for item in lists["commits"]:
            login = self._login(item, "author") or self._login(item, "committer")
            date = (((item.get("commit") or {}).get("author")) or {}).get("date")
            if login is None or not date:
                continue
            commits.append(
                corpus_mod.CommitEvent(
                    repo_full_name=repo,
                    author=login,
                    committed_at=self._timestamp(date, f"commits item {item.get('sha')} date"),
                )
            )
            commit_authors[login] = commit_authors.get(login, 0) + 1

        authors = sorted(
            {p.author for p in pulls}
            | {c.author for p in pulls for c in p.comments}
            | set(commit_authors)
        )
        total_commits = sum(commit_authors.values())
        profile_of = profiles(authors)
        contexts = []
        for author in authors:
            contexts.append(
                corpus_mod.ContributorContext(
                    repo_full_name=repo,
                    author=author,
                    core_member=author in members,
                    contrib_rate_author=(
                        commit_authors.get(author, 0) / total_commits if total_commits else 0.0
                    ),
                    followers=self._count(
                        profile_of[author].get("followers"), f"users/{author} followers"
                    ),
                    # Single-repo exports cannot observe these; see module docs.
                    num_languages=1,
                    contrib_follow_integrator=False,
                    social_strength=0.0,
                )
            )

        repos = [
            corpus_mod.RepoMeta(
                repo_full_name=repo,
                stars=self._count(
                    meta.get("stargazers_count"), f"repos item {repo} stargazers_count"
                ),
                category_labels=frozenset(),
                pr_count=len(pulls),
                repo_size=corpus_mod.repo_size_for(len(pulls)),
            )
        ]
        return corpus_mod.Corpus(pulls=pulls, commits=commits, contexts=contexts, repos=repos)


def fetch_repository(job: FetchJob, fetcher: GitHubFetcher | None = None) -> FetchReport:
    """Convenience wrapper used by the CLI."""
    return (fetcher or GitHubFetcher()).fetch_repository(job)
