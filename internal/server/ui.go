package server

// indexHTML is the embedded single-page UI: the five areas of the paper's
// Figure 3 rendered with vanilla JavaScript against /api/v1.
// Interactions mirror the demo: click an entity to look up its profile,
// "+" to add it as an example, double-click to pivot into its domain;
// "+" on a feature pins it as a condition, double-click pivots to its
// anchor; the timeline revisits historical queries. Every gesture posts
// one single-op batch to /api/v1/ops and renders the state it returns.
const indexHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>PivotE — exploratory entity search</title>
<style>
  body { font-family: system-ui, sans-serif; margin: 0; background:#f5f6f8; color:#222; }
  header { background:#08519c; color:#fff; padding:10px 16px; display:flex; gap:12px; align-items:center;}
  header h1 { font-size:18px; margin:0 16px 0 0; }
  #q { flex:1; max-width:480px; padding:6px 10px; border-radius:4px; border:none; font-size:14px;}
  button { cursor:pointer; border:1px solid #bbb; background:#fff; border-radius:4px; padding:3px 8px;}
  main { display:grid; grid-template-columns: 1fr 1fr 1.2fr; gap:10px; padding:10px;}
  section { background:#fff; border-radius:6px; padding:10px; box-shadow:0 1px 2px rgba(0,0,0,.08); overflow:auto; max-height:44vh;}
  section h2 { font-size:13px; text-transform:uppercase; letter-spacing:.05em; color:#555; margin:0 0 8px;}
  #desc { grid-column: 1 / -1; max-height:none; font-family:monospace; font-size:13px;}
  #heat { grid-column: 1 / -1; max-height:50vh; }
  ul { list-style:none; margin:0; padding:0; }
  li { padding:3px 4px; border-bottom:1px solid #eee; display:flex; gap:6px; align-items:center; font-size:13px;}
  li span.name { flex:1; cursor:pointer; }
  li span.name:hover { color:#08519c; text-decoration:underline;}
  li .score { color:#888; font-size:11px; font-family:monospace;}
  table.heat { border-collapse:collapse; font-size:11px;}
  table.heat td.cell { width:18px; height:18px; border:1px solid #fff;}
  table.heat th { font-weight:normal; padding:2px 6px; text-align:right; font-family:monospace; font-size:11px;}
  table.heat thead th { writing-mode:vertical-rl; transform:rotate(200deg); text-align:left; height:110px;}
  #profile pre { white-space:pre-wrap; font-size:12px;}
  #timeline li { cursor:pointer; }
  #timeline li:hover { background:#eef; }
  .hint { color:#999; font-size:11px; }
</style>
</head>
<body>
<header>
  <h1>PivotE</h1>
  <input id="q" placeholder="Type keywords, e.g. forrest gump — Enter to search">
  <button onclick="submitQuery()">Search</button>
  <span class="hint">entity: click=profile, +=add example, dblclick=pivot · feature: +=pin, dblclick=pivot to anchor</span>
</header>
<main>
  <section id="desc"><h2>Query (a/b)</h2><div id="descText">(empty)</div></section>
  <section><h2>Entities (c)</h2><ul id="entities"></ul></section>
  <section><h2>Semantic features (e)</h2><ul id="features"></ul></section>
  <section id="profile"><h2>Entity profile (d)</h2><pre id="profileText">(click an entity)</pre></section>
  <section id="heat"><h2>Explanation heat map (f)</h2><div id="heatDiv"></div></section>
  <section><h2>Timeline (g) — click to revisit</h2><ul id="timeline"></ul></section>
</main>
<script>
const COLORS = ["#f7fbff","#deebf7","#c6dbef","#9ecae1","#6baed6","#3182bd","#08519c"];
async function api(path, body) {
  const opts = body ? {method:"POST", headers:{"Content-Type":"application/json"}, body:JSON.stringify(body)} : {};
  const r = await fetch(path, opts);
  const data = await r.json();
  if (data.error) { alert(data.error.message); return null; }
  return data;
}
async function op(o) {
  const resp = await api("/api/v1/ops", {ops:[o]});
  if (resp) render(resp.state);
}
function render(st) {
  if (!st) return;
  document.getElementById("descText").textContent = st.description;
  const ents = document.getElementById("entities"); ents.innerHTML = "";
  (st.entities||[]).forEach(e => {
    const li = document.createElement("li");
    const name = document.createElement("span"); name.className="name";
    name.textContent = e.name + (e.type ? " ["+e.type+"]" : "");
    name.onclick = () => profile(e.id);
    name.ondblclick = () => op({op:"pivot", entityId:e.id});
    const add = document.createElement("button"); add.textContent="+";
    add.title="add as example entity";
    add.onclick = () => op({op:"add-entity", entityId:e.id});
    const sc = document.createElement("span"); sc.className="score"; sc.textContent = e.score.toFixed(4);
    li.append(add, name, sc); ents.append(li);
  });
  const feats = document.getElementById("features"); feats.innerHTML = "";
  (st.features||[]).forEach(f => {
    const li = document.createElement("li");
    const name = document.createElement("span"); name.className="name"; name.textContent = f.label;
    name.ondblclick = () => op({op:"pivot", entityId:f.anchorId});
    const add = document.createElement("button"); add.textContent="+"; add.title="pin as condition";
    add.onclick = () => op({op:"add-feature", feature:f.label});
    const sc = document.createElement("span"); sc.className="score";
    sc.textContent = "r="+f.r.toExponential(2)+" |E|="+f.extentSize;
    li.append(add, name, sc); feats.append(li);
  });
  renderHeat(st.heat);
  const tl = document.getElementById("timeline"); tl.innerHTML = "";
  (st.timeline||[]).forEach(a => {
    const li = document.createElement("li");
    li.textContent = "["+a.step+"] "+a.label;
    if (a.changesQuery) li.onclick = () => op({op:"revisit", step:a.step});
    tl.append(li);
  });
}
function renderHeat(h) {
  const div = document.getElementById("heatDiv"); div.innerHTML = "";
  if (!h || !h.features || !h.features.length) { div.textContent = "(empty)"; return; }
  const t = document.createElement("table"); t.className = "heat";
  const thead = document.createElement("thead"); const hr = document.createElement("tr");
  hr.append(document.createElement("th"));
  h.entities.forEach(e => { const th = document.createElement("th"); th.textContent = e.name; hr.append(th); });
  thead.append(hr); t.append(thead);
  h.features.forEach((f,i) => {
    const tr = document.createElement("tr");
    const th = document.createElement("th"); th.textContent = f.label; tr.append(th);
    h.level[i].forEach((lv,j) => {
      const td = document.createElement("td"); td.className="cell";
      td.style.background = COLORS[lv];
      td.title = f.label+" × "+h.entities[j].name+" (level "+lv+")";
      tr.append(td);
    });
    t.append(tr);
  });
  div.append(t);
}
function submitQuery() { op({op:"submit", keywords:document.getElementById("q").value}); }
async function profile(id) {
  const p = await api("/api/v1/profile?id="+id);
  if (!p) return;
  let txt = p.name + "\n" + (p.abstract||"") + "\ntypes: " + p.types.join(", ") +
    "\ncategories: " + (p.categories||[]).join(", ") + "\n";
  (p.literals||[]).forEach(f => txt += "\n" + f.predicate + ": " + f.value);
  (p.facts||[]).forEach(f => txt += "\n" + f.predicate + " → " + f.value);
  (p.incoming||[]).forEach(f => txt += "\n" + f.predicate + " ← " + f.value);
  document.getElementById("profileText").textContent = txt;
}
document.getElementById("q").addEventListener("keydown", e => { if (e.key === "Enter") submitQuery(); });
api("/api/v1/state").then(render);
</script>
</body>
</html>
`
