"""Connected graphs on 1..7 nodes, one per isomorphism class.

The classes follow Read and Wilson, *An Atlas of Graphs* (Oxford, 1998),
in its order (by node count, edge count, degree sequence, then number of
automorphisms) and with its node labels.  ``CONNECTED[n]`` lists the
connected classes on n nodes in that order, one whitespace-separated token
each.  A token is the base-36 edge mask over the node pairs of 0..n-1 in
lexicographic order: bit i is set when the i-th pair (0-1, 0-2, ...,
0-(n-1), 1-2, ...) is an edge.  ``buildingset._atlas_edges`` alone
decodes them, for ``connected_graphs_upto_iso`` and the class scans; the
rows of ``_classes.CLASSES`` follow the same order.
"""

CONNECTED: dict[int, str] = {
    1: "0",
    2: "1",
    3: "3 7",
    4: "1g d 1o 19 1b 1r",
    5: """
        nc iw 49 qw 4b jc dd ih dt rl qx il 3i s8 rw l5 am rx rh sd sf
    """,
    6: """
        kr4 pt 9hj 76p 3mg g7l nww ado mq0 43c 3i 7aa 6em bwi m4n 3nc 1co 3s9
        g8h h54 335 6su e08 fpd d27 3vt 6tr 4ig hwi 3sd 1dk 3sb kpu a1e gaa g8l
        9x5 m5j hr 6sv 2xv 3xl gdl 297 3qx 28f o82 d4n 8jv h5k 56j c60 ilt fzn
        56l e0o mqx h81 5dl hwx 31j 29b h4d o9u ew7 ot4 56n fzv g6r d4v a4d gam
        h2u 5dn c62 o55 5dp ilx i2v hx1 h65 4jh ot5 mw9 h32 inq gl5 bp9 5h7 m2r
        oc9 h9v h9y nw3 4q7 9gn h6l kbz o37 ixm gzb ckb iwl nhr 35r p7f hdj nln
        hdr nlr pa3 pa7
    """,
    7: """
        10w80 nr5 jb5 8fr5 mnr5 jbc j0t 8sch mf8 8fgt 6d7l 2t6n qtk 10pio 5mjx
        n4u9 1jg 5ow9 gwnd v4gg n3cx o01 n0e9 8frg vfi9 j7x 2uxn 7gs mivv pbtn
        8h8p nl1d s56x n0eg sbbd 49hv uy4y n03x jbg 8yfg nphk mu30 pc0q suap
        1jh 1hr 4nh qto osw6 txo orbq hozl 10xsx 13qzk 10x29 7t9 nrh v4gi 1b29
        mh1 8kgc rwz 600d akt 6e6b 26gz 13f0 s50b 63yk 672h jbh 13qyp pi57 o0c
        hygx ns3l sbih 18lo be4 n4uk 8fi3 73gj n8zn s4x nmfg tnb 2q6h nl8h hmwx
        rhft 8it2 s8ek v32h ib7n nl8o n980 rqx5 6dm9 6gdt n87n v1oo 5rhw msgc
        p0y1 ytxt v4g9 6qmp n0ek sv2p 96cx focp 1rz ee7 1h3j o1v c77 seh c05l
        98r hm15 96mh 8h7 s0p 8awy 8fj miu7 bzrt 6q4p ufcy pbyn r95 99hp mpjf
        j6te 13vd mphr 67bb 1mzv s53r hp5k xa3 99qw mshv dmhk 6zbl n93d 6t94
        6gmw pbdf xa5 gzx4 sukp hv81 t3rl pb6j y1n c5sr 640o 3qe5 19wd bh0j
        2eqg n8bd 6ngx 6mpd 9ftd pec3 alah y1p hpap bgyv yft 5reg 8axs xo9 u98p
        c5st uxg3 t0sx 7sy1 8kig gwk7 7s6h c66x 6gs1 cvj7 6jqp 11lkg nr5v sxpk
        jt08 v4nm 13k48 axj7 v1oy suld 6eeh nl8p rfwj uy57 26p5 v4sr jsy9 n0el
        mncg picb n53g 96ib 975d ib8l v4nd r1p5 npos sv3l v1al sy8h u9mx hyep
        o93 cef 98v 8hb 31lb hp3h aria 67d3 8b0i sbiz mpjj j6wy sbt3 uhaw xa7
        19wf 8108 3qe7 6by3 6d3n 5o1r 4z19 necf 96fy 6cc3 22vu btmv 1aaj steb
        c5sv 99li 60nz ov16 6py6 1q9m 26ot hp06 bh0n neqj st0b 2dyy 6oyb 6zbp
        uf6h xod s53z yjwt 6e3i defx j6mx 2ijh 7y49 t3rp yfx 3qsb 8b1c i5vl
        6mph 3qsd 1aal xy2v 6h92 sxjq 2eqi 7yvt 6nh1 c671 hslj 6jqt 35l v80i
        1ku 177u8 11n3l 1avn 1a43 177tk hw03 jct vec2 146r hye3 nudo svcz 14ga8
        108j5 tqop n9q6 n6ri yx4h n1l8 4u23 a42y u9u4 b5ft 143sz volt puzf ua15
        syfl dlc3 t0mj 1007j tahd no2k 18aix 1bao i1xt h06t l970 q7vd wj7t tavl
        101g9 9j09 16vzl hmy9 142ur vo8h n9f6 zwax t0tt boxo 14g9d ho7q yxht
        n53h npot vft8 sy9d k2mt 9cvl hp71 dhhp c98t 1dcd 10q5 j8rd 7t8p j0zt
        8109 6t3y u9jd 6zfa 6eop 9fx2 hmft 185c8 2c8t 6mt2 ymz suzd 7sh5 7p8j
        9715 1ahn t3va otb1 ttoj sxql 2d0d c6e3 nexn il4z 6h9a no3x ufkp 6hn7
        7za1 6qjd 6nkm s1ls 7xlf sxxv 99zn dkrh 3qzf 6hna 89g3 7cmb b6sg 183sg
        1bcz dfih 16zdw i7v7 96db nuf7 wmdu i7vd 1apn 14my8 mbzk 18cxc t3sb
        1460b 70n7 i89d hyez u9xl nufg m0q8 v87d 1eh8 179dd n1l9 1466l q7i3
        kewr ymwr 9j0d 17rld x58j dns5 aroj mk72 kuvl 18axd wmkp ykb1 n559 lmol
        fc5f 10uab 12ouh rse1 16x5d tb9t dob1 14gnl 15w10 ywqb ryp5 773g 14m28
        imzr v4nv 8c1v b6eo kriz imdr 1b3t nsul ufyx wj89 146dp lavt nqvg vhe4
        wfvx agbr 7ywp ws3w 101nd p2xl w53g msvh vifg syml vhax ucst umh5 kv2p
        6x5h lmq4 l7pp 8y48 hq44 10qzf ukpb vkf dhhr 1r5z 4jif hp7h 6hgd 1qef
        6got 6tb1 76q7 iehb nc9b 7xzn uiqd poev aus5 cyx3 89ub po7z 9ggq 6ncq
        sxr1 t4d1 do2j 2fjv vahj 58nv 6nat tn0v 18o10 i2x5 18e8k 52on 2ynr u6a1
        x5e5 6bh 6axb kojx ixp hiof lrwf n1zz dhfh 5shp c8t m98t x5pw vi5 ykel
        l7m5 7ssd bqot sfv1 dgwf 9cvj pvff db65 b60z vpan 108nb nbi5 3u5p 18bpl
        lqk0 ns6x 179rl ugd5 146kt ar0z 15cbs w7qo dao7 lwzx ueoj nckt bxql
        7jo5 ifkl 771x kv2l wh4o 17bdg 16hic m6w9 cznr aqqb f90c a01o 11vkk
        ehdo 158z4 180gk 10h0k gt2o 88k5 ud05 m142 vxyo 104t1 18b4y 12wte mbhe
        upps lxtc less 17oq8 18etf fsmk 10v5k qbak fs18 155o8 k0bw q4xo jfqs
        14a5w 14778 vki5 lnbh i5yw 8dkc rzmh 108m3 179f5 kne4 18x7k j3rj 6g9r
        vk8v 18lcw 18wec matb xpgg 1880w 82l7 ucb3 11x8w lrq8 183u9 i67 aodp
        524d dhj1 18vcg cs8v ncnj 187u0 xp2o 187n4 zykv mgq8 uf2r ki9p 8amr
        mmm7 p9x w9u4 163ac l8ss 4hkv o0sf 8npb 2ebj 18i76 9tqk xmaw j657 t1y7
        dl9b tduf 17998 18ski 1055n j5dn 8lod 18ewg lyvn 9oen 13rdr gunk lrcg
        z9b3 1394g sxz2 9pun le1p 13axt mgpt mcft 18gvf s1xp 18h95 t8f9 d6gv
        rjlg lzzh 17srt w7qw 14n20 175ub mc1d 108mz m7aw htk6 teml gri0 lewc
        131iw 11kfs 18bjm e1dd 18lwy a65p kgae jk6w b6d4 184el w9td lqk1 108nv
        6hun 18xb4 138sf 164yo 18wg4 lwwf 187z dnu7 ho1r ddz3 15zjz 182tb j5rv
        8amz mblr lxvg 15kun usi3 164v8 18vok mgxc 18x7l 18ve8 edi7 ujj1 161ns
        x0a0 wb00 ynkv 6l1a 18t4h w5z3 131rv 16sak 8lq5 13a5o 16jwf 18kvd 15ygo
        18ewo 17ve4 12kl8 186nh lz0f l8hr wn98 15rql wat4 184to xng8 xp2p 187u1
        lepo 187n5 184jc s37c lep9 g5h4 kz5k 10c8o 11u1o 117z0 15lgz 94n0 82qj
        81yz rfnj 18da7 18ev1 ly2k ujq5 18q0l 18eyh 18lgi 17pvg 18knw 18koc
        5fq7 m9vz 18dzj 17iwd 18vxp 16sos 179iv 13a64 18kxk 17vss 11k8t gsvz
        186ul 139v9 176id 163dy lrqw 11kn0 17vsd 15yig 18wef 17g9z 13a5j w7ss
        9tx8 11wgt mdmh 8elb 18tdo 18ksf mh2o 18kos 18wcc 18ev3 18798 18wc5
        18w51 162tb 13a9o 17vst 11kn1 9p8f w7r3 s1mn 13bqx 18819 11whp lrr0
        8fdr hk3j 18wcd 13a9p 18xb1 18y0l 188u4 13br1 16u9p lrss ujun 5m9r
        17ipr 18f7b 188tr 18f7j 17jlj 18y5z 18y67
    """,
}
